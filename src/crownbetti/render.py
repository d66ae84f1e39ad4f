"""Deterministic text and JSON rendering of Betti tables and graded Betti
numbers.

The Betti diagram follows the Macaulay2 convention: column i is the
homological index, row r collects the graded entries with j - i = r.
"""

from __future__ import annotations

from typing import Any

from .homology import BettiTable
from .multidegree import Multidegree


def _graded_summary(graded: dict[tuple[int, int], int]) -> tuple[int, int, list[int]]:
    """pdim, regularity and the total Betti numbers b_0..b_pdim, read off
    the graded Betti numbers."""
    if not graded:
        raise ValueError("no graded Betti numbers")
    pdim = max(i for i, _ in graded)
    totals = [0] * (pdim + 1)
    for (i, _), c in graded.items():
        totals[i] += c
    return pdim, max(j - i for i, j in graded), totals


def betti_diagram(graded: dict[tuple[int, int], int]) -> str:
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


def raw_graded_lines(graded: dict[tuple[int, int], int]) -> str:
    """(i, j, count) triples, one per line, sorted."""
    return "\n".join(f"{i} {j} {c}" for (i, j), c in sorted(graded.items()))


def multigraded_lines(table: BettiTable) -> str:
    """One line per entry: homological index, monomial, multiplicity."""
    items = sorted(table.entries.items())
    return "\n".join(f"{i}  {a}  {c}" for (i, a), c in items)


def graded_report(graded: dict[tuple[int, int], int], raw: bool = False) -> str:
    """pdim, reg and total lines, then the Betti diagram (or, with `raw`,
    the (i, j, count) triples) of graded Betti numbers."""
    pdim, reg, totals = _graded_summary(graded)
    parts = [
        f"pdim: {pdim}",
        f"reg: {reg}",
        f"total: {' '.join(str(b) for b in totals)}",
        "",
        raw_graded_lines(graded) if raw else betti_diagram(graded),
    ]
    return "\n".join(parts) + "\n"


def report_text(table: BettiTable, multigraded: bool = False, raw: bool = False) -> str:
    text = graded_report(table.graded(), raw)
    if multigraded:
        text += "\n" + multigraded_lines(table) + "\n"
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
