"""Deterministic text and JSON rendering of Betti tables and graded Betti
numbers.

The Betti diagram follows the Macaulay2 convention: column i is the
homological index, row r collects the graded entries with j - i = r.
The pdim, reg and total lines come from homology._graded_summary, the
rule BettiTable's own aggregates read.

Every multigraded listing, the JSON rows and the --multigraded lines of
every command alike, is written by one row writer, _row_texts: each row's
exponent tuple is written from the cached texts of its two halves, and the
rows are written 4096 at a time.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

from .homology import BettiTable, _graded_summary
from .multidegree import Multidegree, VariableSet


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


def _rows(table: BettiTable) -> list[tuple[int, tuple[int, ...], int]]:
    """The rows (i, exponents, count) of the table's entries in increasing
    order; each row shares its entry's exponent tuple, and the tuples sort in C."""
    return sorted((i, a.exponents, c) for (i, a), c in table.entries.items())


_CHUNK = 4096  # rows per text: joined at once, the n = 9 JSON listing peaks at 110 MB, not 69


class _Texts(dict):
    """The text of each key, written by `write` at the key's first lookup."""

    def __init__(self, write):
        super().__init__()
        self.write = write

    def __missing__(self, key):
        text = self[key] = self.write(key)
        return text


def _monomial(names: tuple[str, ...]):
    """The writer of the monomial text str(Multidegree) gives over `names`,
    but "" for the monomial 1."""
    return lambda part: "*".join(v if x == 1 else f"{v}^{x}" for v, x in zip(names, part) if x)


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
        low, high = _Texts(_monomial(names[:h])), _Texts(_monomial(names[h:]))
        while chunk := [row for _, row in zip(range(_CHUNK), rows)]:
            yield "\n".join([
                f"{i}  {lo + '*' + hi if lo and hi else lo or hi or '1'}  {c}"
                for i, e, c in chunk
                for lo, hi in ((low[e[:h]], high[e[h:]]),)
            ])


def _text_report(
    graded: dict[tuple[int, int], int], rows, variables: VariableSet, multigraded: bool, raw: bool
) -> str:
    """graded_report, then with `multigraded` one line "i  a  c" per row
    (i, exponents, c) of the sorted `rows`, a being the monomial over `variables`
    as str(Multidegree) writes it; the lines come from _row_texts."""
    text = graded_report(graded, raw)
    if multigraded:
        names = variables.names
        text += "\n" + "\n".join(_row_texts(rows, len(names) // 2, names)) + "\n"
    return text


def report_text(table: BettiTable, multigraded: bool = False, raw: bool = False) -> str:
    """graded_report of the table, then with `multigraded` one line "i  a  c" per entry."""
    return _text_report(table.graded(), _rows(table), table.variables, multigraded, raw)


def _json_dict(graded: dict[tuple[int, int], int], rows) -> dict[str, Any]:
    """The JSON document of graded numbers `graded` and the sorted rows
    (i, exponents, count); json writes a tuple as an array."""
    pdim, reg, totals = _graded_summary(graded)
    return {
        "pdim": pdim,
        "reg": reg,
        "total": totals,
        "graded": [[i, j, c] for (i, j), c in sorted(graded.items())],
        "multigraded": list(rows),
    }


def table_to_json_dict(table: BettiTable) -> dict[str, Any]:
    return _json_dict(table.graded(), _rows(table))


def _write_json(doc: dict[str, Any], out: TextIO) -> None:
    """Write json.dumps(doc, sort_keys=True) and a newline to `out`.  The C
    encoder writes all but the rows; the rows are written by _row_texts,
    4096 at a time, from the cached texts of their exponent tuples' halves
    (split at the middle), never as one string."""
    rows = doc["multigraded"]
    head, tail = json.dumps({**doc, "multigraded": []}, sort_keys=True).split('"multigraded": []')
    out.write(head + '"multigraded": [')
    h = len(rows[0][1]) // 2 if rows else 0
    for k, text in enumerate(_row_texts(rows, h)):
        out.write(", " + text if k else text)
    out.write("]" + tail + "\n")


def table_from_json_dict(data: dict[str, Any], variables: VariableSet) -> BettiTable:
    """Inverse of table_to_json_dict over a known variable set; its rows may
    be tuples or, as json.loads reads them, lists.  A row whose index,
    exponents or count are not all of type int (a bool or a float is not),
    or a second row at one (i, exponents), is a ValueError."""
    entries: dict[tuple[int, Multidegree], int] = {}
    for i, exps, c in data["multigraded"]:
        exps = tuple(exps)
        if not all(type(x) is int for x in (i, c, *exps)):
            raise ValueError(f"row {[i, list(exps), c]}: index, exponents and count must be ints")
        key = (i, Multidegree(variables, exps))
        if key in entries:
            raise ValueError(f"row {[i, list(exps), c]}: a second row at this index and exponents")
        entries[key] = c
    return BettiTable(variables, entries)
