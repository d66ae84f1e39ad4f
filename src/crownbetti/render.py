"""Deterministic text and JSON rendering of Betti tables and graded Betti
numbers.

The Betti diagram follows the Macaulay2 convention: column i is the
homological index, row r collects the graded entries with j - i = r.
The pdim, reg and total lines come from homology._graded_summary, the
rule BettiTable's own aggregates read.
"""

from __future__ import annotations

from typing import Any

from .homology import BettiTable, _graded_summary
from .multidegree import Multidegree


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


def report_text(table: BettiTable, multigraded: bool = False, raw: bool = False) -> str:
    """graded_report of the table; with `multigraded`, then one line per
    entry: homological index, monomial, multiplicity."""
    text = graded_report(table.graded(), raw)
    if multigraded:
        items = sorted(table.entries.items())
        text += "\n" + "\n".join(f"{i}  {a}  {c}" for (i, a), c in items) + "\n"
    return text


def table_to_json_dict(table: BettiTable) -> dict[str, Any]:
    graded = table.graded()
    pdim, reg, totals = _graded_summary(graded)
    return {
        "pdim": pdim,
        "reg": reg,
        "total": totals,
        "graded": [[i, j, c] for (i, j), c in sorted(graded.items())],
        # plain rows sort by (i, exponents) in C, far faster than Multidegrees
        "multigraded": sorted(
            [i, list(a.exponents), c] for (i, a), c in table.entries.items()
        ),
    }


def table_from_json_dict(data: dict[str, Any], variables) -> BettiTable:
    """Inverse of table_to_json_dict over a known variable set."""
    entries = {
        (i, Multidegree(variables, tuple(exps))): c
        for i, exps, c in data["multigraded"]
    }
    return BettiTable(variables, entries)
