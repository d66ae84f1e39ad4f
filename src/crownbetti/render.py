"""Deterministic text and JSON rendering of Betti tables.

The Betti diagram follows the Macaulay2 convention: column i is the
homological index, row r collects the graded entries with j - i = r.
"""

from __future__ import annotations

from typing import Any

from .homology import BettiTable
from .multidegree import Multidegree


def betti_diagram(table: BettiTable) -> str:
    graded = table.graded()
    p = table.pdim()
    rows = sorted({j - i for i, j in graded})
    cols = list(range(p + 1))
    totals = table.total()
    grid = [["" for _ in cols] for _ in rows]
    for (i, j), c in graded.items():
        grid[rows.index(j - i)][i] = str(c)
    header = ["j-i"] + [str(i) for i in cols]
    body = [[str(r)] + [cell or "." for cell in grid[k]] for k, r in enumerate(rows)]
    total_row = ["total"] + [str(totals.get(i, 0)) for i in cols]
    widths = [
        max(len(line[c]) for line in [header, total_row] + body)
        for c in range(len(header))
    ]
    lines = []
    for line in [header, total_row] + body:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    return "\n".join(lines)


def raw_graded_lines(table: BettiTable) -> str:
    """(i, j, count) triples, one per line, sorted."""
    graded = table.graded()
    return "\n".join(f"{i} {j} {c}" for (i, j), c in sorted(graded.items()))


def multigraded_lines(table: BettiTable) -> str:
    """One line per entry: homological index, monomial, multiplicity."""
    items = sorted(table.entries.items())
    return "\n".join(f"{i}  {a}  {c}" for (i, a), c in items)


def report_text(table: BettiTable, multigraded: bool = False, raw: bool = False) -> str:
    parts = [
        f"pdim: {table.pdim()}",
        f"reg: {table.regularity()}",
        f"total: {' '.join(str(b) for b in table.total_sequence())}",
        "",
        raw_graded_lines(table) if raw else betti_diagram(table),
    ]
    if multigraded:
        parts += ["", multigraded_lines(table)]
    return "\n".join(parts) + "\n"


def table_to_json_dict(table: BettiTable) -> dict[str, Any]:
    graded = table.graded()
    return {
        "pdim": table.pdim(),
        "reg": table.regularity(),
        "total": table.total_sequence(),
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
