"""Deterministic text and JSON rendering of Betti tables and graded Betti
numbers.

The Betti diagram follows the Macaulay2 convention: column i is the
homological index, row r collects the graded entries with j - i = r.
The pdim, reg and total lines come from homology._graded_summary, the
rule BettiTable's own aggregates read.

Every report is written a piece at a time by one generator, _report; its
listings, the JSON rows and the --multigraded lines alike, come from one
row writer, _row_texts, which writes each exponent tuple from the cached
texts of its two halves, 4096 rows at a time.  A table's rows are sorted
only when a listing reads them: a text report sorts nothing.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Any, Iterator

from .homology import BettiTable, _graded_summary
from .multidegree import Multidegree, VariableSet, _monomial


def _betti_diagram(graded: dict[tuple[int, int], int]) -> str:
    """The Betti diagram of graded Betti numbers {(i, j): beta_{i,j}}."""
    p, _, totals = _graded_summary(graded)
    rows = sorted({j - i for i, j in graded})
    cols = list(range(p + 1))
    grid = [["" for _ in cols] for _ in rows]
    for (i, j), c in graded.items():
        grid[rows.index(j - i)][i] = str(c)
    header = ["j-i"] + [str(i) for i in cols]
    body = [[str(r)] + [cell or "." for cell in grid[k]] for k, r in enumerate(rows)]
    total_row = ["total"] + [str(totals[i]) for i in cols]
    widths = [
        max(len(line[c]) for line in [header, total_row] + body)
        for c in range(len(header))
    ]
    lines = []
    for line in [header, total_row] + body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)


def graded_report(graded: dict[tuple[int, int], int], raw: bool = False) -> str:
    """pdim, reg and total lines, then the Betti diagram (or, with `raw`,
    the (i, j, count) triples) of graded Betti numbers."""
    pdim, reg, totals = _graded_summary(graded)
    if raw:
        body = "\n".join(f"{i} {j} {c}" for (i, j), c in sorted(graded.items()))
    else:
        body = _betti_diagram(graded)
    parts = [
        f"pdim: {pdim}",
        f"reg: {reg}",
        f"total: {' '.join(str(b) for b in totals)}",
        "",
        body,
    ]
    return "\n".join(parts) + "\n"


def _rows(table: BettiTable) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The rows (i, exponents, count) of the table's entries in increasing
    order, sorted at the first read; each row shares its entry's exponent
    tuple, and the tuples sort in C."""
    yield from sorted((i, a.exponents, c) for (i, a), c in table.entries.items())


_CHUNK = 4096  # rows per text: joined at once, the n = 9 JSON listing peaks at 110 MB, not 69


class _Texts(dict):
    """The text of each key, written by `write` at the key's first lookup."""

    def __init__(self, write):
        super().__init__()
        self.write = write

    def __missing__(self, key):
        text = self[key] = self.write(key)
        return text


def _row_texts(rows, h: int, names: tuple[str, ...] | None = None):
    """The text of the sorted rows (i, exponents, count), _CHUNK rows at a
    time: the JSON arrays [i, [exponents], count] joined by ", ", or with
    `names` the lines "i  a  c" joined by newlines, a being the monomial over
    `names` as str(Multidegree) writes it ("1" when every exponent is 0).

    Each exponent tuple e is written from the texts of its halves e[:h] and
    e[h:]; a distinct half is written once per call, then looked up.  Any h
    gives the same text.  At a crown's x|y split (h = n) each half is one of
    2^n vertex subsets: the 11,026 rows at n = 7 have 127 distinct halves
    on either side."""
    rows = iter(rows)
    if names is None:  # the JSON array "x, ..., y, ...": the low half ends in ", "
        low = _Texts(lambda part: "".join(f"{x}, " for x in part))
        high = _Texts(lambda part: ", ".join(map(str, part)))
        while chunk := [row for _, row in zip(range(_CHUNK), rows)]:
            yield ", ".join([f"[{i}, [{low[e[:h]]}{high[e[h:]]}], {c}]" for i, e, c in chunk])
    else:
        low, high = _Texts(partial(_monomial, names[:h])), _Texts(partial(_monomial, names[h:]))
        while chunk := [row for _, row in zip(range(_CHUNK), rows)]:
            yield "\n".join([
                f"{i}  {lo + '*' + hi if lo and hi else lo or hi or '1'}  {c}"
                for i, e, c in chunk
                for lo, hi in ((low[e[:h]], high[e[h:]]),)
            ])


def _report(graded: dict[tuple[int, int], int], rows, variables: VariableSet, output: str,
            multigraded: bool, raw: bool) -> Iterator[str]:
    """The report of graded numbers `graded` and the sorted rows (i, exponents,
    count) over `variables`, a piece at a time: with `output` "json",
    json.dumps(_json_dict(graded, rows), sort_keys=True) and a newline, the C
    encoder writing all but the rows; else graded_report, then with
    `multigraded` one line "i  a  c" per row, a being the monomial as
    str(Multidegree) writes it.  Only a listing reads the rows."""
    if output == "json":
        head, tail = json.dumps(_json_dict(graded, []), sort_keys=True).split('"multigraded": []')
        yield head + '"multigraded": ['
        sep, end, names = ", ", "]" + tail + "\n", None
    elif multigraded:
        yield graded_report(graded, raw) + "\n"
        sep, end, names = "\n", "\n", variables.names
    else:
        yield graded_report(graded, raw)
        return
    for k, text in enumerate(_row_texts(rows, len(variables) // 2, names)):
        yield sep + text if k else text
    yield end


def report_text(table: BettiTable, multigraded: bool = False, raw: bool = False) -> str:
    """graded_report of the table, then with `multigraded` one line "i  a  c" per entry."""
    return "".join(_report(table.graded(), _rows(table), table.variables, "text", multigraded, raw))


def _json_dict(graded: dict[tuple[int, int], int], rows) -> dict[str, Any]:
    """The JSON document of graded numbers `graded` and the sorted rows
    (i, exponents, count), kept as the iterable given."""
    pdim, reg, totals = _graded_summary(graded)
    return {
        "pdim": pdim,
        "reg": reg,
        "total": totals,
        "graded": [[i, j, c] for (i, j), c in sorted(graded.items())],
        "multigraded": rows,
    }


def table_to_json_dict(table: BettiTable) -> dict[str, Any]:
    """The table's JSON document, its rows a list; json writes a tuple as an array."""
    return _json_dict(table.graded(), list(_rows(table)))


def table_from_json_dict(data: dict[str, Any], variables: VariableSet) -> BettiTable:
    """Inverse of table_to_json_dict over `variables`; its rows and their exponents may
    be tuples or, as json.loads reads them, lists.  A document without a "multigraded"
    list, or with a row that is not [index, [exponents], count] of an entry in ints (a
    bool or a float is not one, and exponents in a dict, a set or a range are not a
    list) or repeats an (i, exponents), is a ValueError that names the row."""
    rows = data.get("multigraded") if isinstance(data, dict) else None
    if not isinstance(rows, (list, tuple)):
        raise ValueError('the document has no "multigraded" list of rows')
    entries: dict[tuple[int, Multidegree], int] = {}
    for row in rows:
        try:
            i, exps, c = row
            if not isinstance(exps, (list, tuple)):
                raise ValueError("the exponents must be a list")
            if not all(type(x) is int for x in (i, c, *exps)):
                raise ValueError("index, exponents and count must be ints")
            if i < 0 or c < 1:
                raise ValueError("the index must be at least 0 and the count at least 1")
            key = (i, Multidegree(variables, exps))  # the right number of exponents, each >= 0
            if key in entries:
                raise ValueError("a second row at this index and exponents")
        except (TypeError, ValueError) as exc:  # TypeError: a row that is not a sequence
            raise ValueError(f"row {row!r}: {exc}") from None
        entries[key] = c
    return BettiTable(variables, entries)
