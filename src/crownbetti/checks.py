"""Verification routines pairing the closed forms with the homology oracle.

Each check returns a list of human-readable failure strings; an empty list
means the check passed.  The CLI ``verify`` command and the acceptance
tests are both built on these.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Sequence

from .formulas import multigraded_betti_formula, regularity_formula, total_betti_closed_form
from .graphs import crown, edge_ideal, induced_subgraph
from .homology import FieldSpec, multigraded_betti
from .ideals import ideal_intersect, lcm_lattice
from .multidegree import binomial
from .splitting import crown_splitting, splitting_violation


def check_formula_vs_oracle(
    n: int, weights: Sequence[int], field: FieldSpec = FieldSpec()
) -> list[str]:
    """Entry-for-entry equality of the predicted and oracle Betti tables."""
    oracle = multigraded_betti(edge_ideal(crown(n, weights)), field)
    predicted = multigraded_betti_formula(n, weights)
    failures = []
    for key in sorted(set(oracle.entries) | set(predicted.entries)):
        got, want = oracle.entries.get(key, 0), predicted.entries.get(key, 0)
        if got != want:
            i, a = key
            failures.append(f"beta_({i}, {a}) oracle={got} formula={want}")
    if oracle.regularity() != regularity_formula(n, weights):
        failures.append(
            f"regularity oracle={oracle.regularity()} "
            f"formula={regularity_formula(n, weights)}"
        )
    totals = oracle.total_sequence()
    closed = [total_betti_closed_form(n, i) for i in range(len(totals))]
    if totals != closed:
        failures.append(f"totals oracle={totals} closed form={closed}")
    alt = 1 + sum((-1) ** (i + 1) * b for i, b in enumerate(totals))
    if alt != 0:
        failures.append(f"alternating sum 1 - b0 + b1 - ... = {alt}, expected 0")
    return failures


def check_restriction(
    n: int, weights: Sequence[int], field: FieldSpec = FieldSpec()
) -> list[str]:
    """Induced-subgraph restriction: for every vertex subset W and every
    lattice multidegree supported inside W, the subgraph's Betti number
    equals the full graph's."""
    graph = crown(n, weights)
    ideal = edge_ideal(graph)
    full = multigraded_betti(ideal, field)
    lattice = sorted(lcm_lattice(ideal))
    failures = []
    vertices = graph.vertices.names
    for size in range(len(vertices) + 1):
        for subset in combinations(vertices, size):
            window = set(subset)
            points = [a for a in lattice if a.support() <= window]
            if not points:
                continue
            sub_ideal = edge_ideal(induced_subgraph(graph, window))
            sub = (
                multigraded_betti(sub_ideal, field)
                if not sub_ideal.is_zero()
                else None
            )
            max_i = full.pdim() + 1
            for a in points:
                for i in range(max_i + 1):
                    got = sub.entry(i, a) if sub is not None else 0
                    want = full.entry(i, a)
                    if got != want:
                        failures.append(
                            f"W={sorted(window)} beta_({i}, {a}): "
                            f"subgraph={got} full={want}"
                        )
    return failures


def check_crown_splitting(
    n: int, weights: Sequence[int], field: FieldSpec = FieldSpec()
) -> list[str]:
    """The decomposition I_n = (I_{n-1} + x_n*A) + y_n^{w_n}*B is a Betti
    splitting, and the pdim/reg max-formulas hold on it."""
    j_ideal, k_ideal = crown_splitting(n, weights)
    meet = ideal_intersect(j_ideal, k_ideal)
    ideals = (edge_ideal(crown(n, weights)), j_ideal, k_ideal, meet)
    t_whole, t_j, t_k, t_meet = (multigraded_betti(x, field) for x in ideals)
    witness = splitting_violation(t_whole, t_j, t_k, t_meet)
    if witness is not None:
        i, a = witness
        return [f"splitting of I_{n} fails at beta_({i}, {a})"]
    failures = []
    if t_whole.pdim() != max(t_j.pdim(), t_k.pdim(), t_meet.pdim() + 1):
        failures.append(f"pdim max-formula fails for I_{n}")
    if t_whole.regularity() != max(
        t_j.regularity(), t_k.regularity(), t_meet.regularity() - 1
    ):
        failures.append(f"reg max-formula fails for I_{n}")
    return failures


def check_binomial_identity(n_max: int = 12) -> list[str]:
    """C(2n-4, m) decomposes over the number of complete pairs chosen."""
    failures = []
    for n in range(2, n_max + 1):
        for m in range(0, 2 * n - 3):
            rhs = sum(
                2 ** (m + 4 - 2 * k)
                * binomial(n - k, m + 4 - 2 * k)
                * binomial(n - 2, k - 2)
                for k in range(2, n + 1)
                if m + 4 - 2 * k >= 0
            )
            if binomial(2 * n - 4, m) != rhs:
                failures.append(
                    f"identity fails at n={n}, m={m}: "
                    f"{binomial(2 * n - 4, m)} != {rhs}"
                )
    return failures


def check_support_implication(
    n: int, weights: Sequence[int], field: FieldSpec = FieldSpec()
) -> list[str]:
    """Every nonzero beta_{i,a} of the crown ideal has i equal to the
    projective dimension of the edge ideal induced on supp(a)."""
    graph = crown(n, weights)
    table = multigraded_betti(edge_ideal(graph), field)
    failures = []
    for i, a in sorted(table.entries):
        sub_ideal = edge_ideal(induced_subgraph(graph, a.support()))
        if sub_ideal.is_zero():
            failures.append(f"beta_({i}, {a}) nonzero but G[supp] is edgeless")
            continue
        p = multigraded_betti(sub_ideal, field).pdim()
        if p != i:
            failures.append(f"beta_({i}, {a}) nonzero but pdim(I(G[supp])) = {p}")
    return failures


def default_weight_matrix(n: int) -> list[tuple[int, ...]]:
    """The three standard weight vectors: all ones, (2,1,...,1), (1,2,...,n)."""
    return [
        (1,) * n,
        (2,) + (1,) * (n - 1),
        tuple(range(1, n + 1)),
    ]
