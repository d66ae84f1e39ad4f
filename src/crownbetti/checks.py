"""Verification routines pairing the closed forms with the homology oracle.

Each check returns a list of human-readable failure strings; an empty list
means the check passed.  The CLI ``verify`` command and the acceptance
tests are both built on these.

Tables are compared whole, by ``BettiTable.differences``: oracle against
closed form, I against J + K + shifted J ∩ K, and each induced subgraph
G[W] against the full table restricted to the entries supported in W.
The colon chain behind the mapping-cone bound is checked by ideal
arithmetic alone.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .formulas import multigraded_betti_formula, regularity_formula, total_betti_closed_form
from .graphs import crown, edge_ideal, induced_subgraph
from .homology import BettiTable, FieldSpec, multigraded_betti
from .ideals import colon_by_monomial, ideal_intersect, minimalize, scale
from .multidegree import Multidegree, binomial, divides
from .splitting import (
    _splitting_tables,
    crown_splitting,
    mapping_cone_upper_bound,
    splitting_violation,
)


def check_formula_vs_oracle(
    n: int, weights: Sequence[int], field: FieldSpec = FieldSpec()
) -> list[str]:
    """Entry-for-entry equality of the predicted and oracle Betti tables."""
    oracle = multigraded_betti(edge_ideal(crown(n, weights)), field)
    predicted = multigraded_betti_formula(n, weights)
    failures = [
        f"beta_({i}, {a}) oracle={oracle.entry(i, a)} formula={predicted.entry(i, a)}"
        for i, a in oracle.differences(predicted)
    ]
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
    """Induced-subgraph restriction, table against table: for every vertex
    subset W, the whole Betti table of I(G[W]) (empty when G[W] has no
    edge) equals the full graph's table restricted to the entries (i, a)
    with supp(a) inside W, at every homological index."""
    graph = crown(n, weights)
    full = multigraded_betti(edge_ideal(graph), field)
    empty = BettiTable(full.variables, {})
    vertices = graph.vertices.names
    # each entry's support as a bitmask over the vertex order, read once
    supports = [
        (sum(1 << k for k, e in enumerate(a.exponents) if e), (i, a), c)
        for (i, a), c in full.entries.items()
    ]
    failures = []
    for size in range(len(vertices) + 1):
        for subset in combinations(range(len(vertices)), size):
            window, names = sum(1 << k for k in subset), [vertices[k] for k in subset]
            restricted = {key: c for s, key, c in supports if s | window == window}
            sub_ideal = edge_ideal(induced_subgraph(graph, names))
            sub = multigraded_betti(sub_ideal, field) if not sub_ideal.is_zero() else empty
            failures.extend(
                f"W={sorted(names)} beta_({i}, {a}): "
                f"subgraph={sub.entry(i, a)} full={full.entry(i, a)}"
                for i, a in sub.differences(BettiTable(full.variables, restricted))
            )
    return failures


def check_crown_splitting(
    n: int, weights: Sequence[int], field: FieldSpec = FieldSpec()
) -> list[str]:
    """The decomposition I_n = (I_{n-1} + x_n*A) + y_n^{w_n}*B is a Betti
    splitting, and the pdim/reg max-formulas hold on it."""
    j_ideal, k_ideal = crown_splitting(n, weights)
    try:
        tables = _splitting_tables(edge_ideal(crown(n, weights)), j_ideal, k_ideal, field)
    except ValueError as exc:
        return [f"splitting of I_{n}: {exc}"]
    witness = splitting_violation(*tables)
    if witness is not None:
        i, a = witness
        return [f"splitting of I_{n} fails at beta_({i}, {a})"]
    t_whole, t_j, t_k, t_meet = tables
    failures = []
    if t_whole.pdim() != max(t_j.pdim(), t_k.pdim(), t_meet.pdim() + 1):
        failures.append(f"pdim max-formula fails for I_{n}")
    if t_whole.regularity() != max(
        t_j.regularity(), t_k.regularity(), t_meet.regularity() - 1
    ):
        failures.append(f"reg max-formula fails for I_{n}")
    return failures


def check_colon_chain(n: int, weights: Sequence[int]) -> list[str]:
    """The colon chain behind mapping_cone_upper_bound, by ideal arithmetic.

    With Q_0 = I_{n-1} and Q_s = Q_{s-1} + (x_n*x_s*y_s^{w_s}) for s < n,
    each Q_{s-1} : x_n*x_s*y_s^{w_s} is the complete intersection on x_r
    and y_r^{w_r} (r < n, r != s), the splitting's J ∩ K is
    y_n^{w_n}*Q_{n-1}, and the bound is at least the closed-form total
    beta_i for 0 <= i <= 2n - 3."""
    j_ideal, k_ideal = crown_splitting(n, weights)
    variables = j_ideal.variables

    def pair(r: int) -> tuple[Multidegree, Multidegree]:
        return variables.variable(f"x{r}"), variables.variable(f"y{r}", weights[r - 1])

    x_n, y_n = pair(n)
    # Q_0 = I_{n-1}: the generators of J that x_n does not divide
    q = minimalize(variables, [g for g in j_ideal.generators if not divides(x_n, g)])
    failures = []
    for s in range(1, n):
        x_s, y_s = pair(s)
        link = x_n * x_s * y_s
        colon = colon_by_monomial(q, link)
        expected = minimalize(variables, [v for r in range(1, n) if r != s for v in pair(r)])
        if colon != expected:
            failures.append(f"Q_{s - 1} : {link} = {colon}, expected {expected}")
        q = minimalize(variables, q.generators + (link,))
    meet = ideal_intersect(j_ideal, k_ideal)
    if meet != scale(y_n, q):
        failures.append(f"J ∩ K = {meet}, expected {y_n} * {q}")
    for i in range(2 * n - 2):
        bound, total = mapping_cone_upper_bound(n, i), total_betti_closed_form(n, i)
        if bound < total:
            failures.append(f"mapping-cone bound {bound} < closed-form beta_{i} = {total}")
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
