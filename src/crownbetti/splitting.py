"""Betti splittings, Taylor tables of dominant ideals, support-disjoint
product/sum convolutions, and the recursive upper bound for crown graphs."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional, Sequence

from .graphs import crown, edge_ideal, induced_subgraph
from .homology import BettiTable, FieldSpec, multigraded_betti
from .ideals import (
    MonomialIdeal,
    colon_by_monomial,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    is_dominant,
    minimalize,
    scale,
)
from .multidegree import (
    Multidegree,
    binomial,
    divides,
    lcm_of,
    quotient,
    xy_variables,
)


def taylor_betti_dominant(ideal: MonomialIdeal) -> BettiTable:
    """Betti table of a dominant ideal, read off its (minimal) Taylor complex.

    beta_{i,a} counts the (i+1)-subsets of the generators with lcm a; the
    projective dimension is m - 1 with a single top entry at the lcm of all
    generators.
    """
    if not is_dominant(ideal):
        raise ValueError("Taylor Betti table requires a dominant ideal")
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("Betti numbers computed only for nonzero, non-unit ideals")
    entries: dict[tuple[int, Multidegree], int] = {}
    gens = ideal.generators
    for size in range(1, len(gens) + 1):
        for subset in combinations(gens, size):
            key = (size - 1, lcm_of(subset))
            entries[key] = entries.get(key, 0) + 1
    return BettiTable(ideal.variables, entries)


def check_splitting_lemma_hypotheses(
    i_part: MonomialIdeal, j_part: MonomialIdeal, k_part: MonomialIdeal
) -> bool:
    """Hypotheses under which I + JK is a Betti splitting:

    supp(J) disjoint from supp(I) and supp(K); G(I) disjoint from G(JK);
    and every generator of I factors as u1*u2 with u1 a generator of K,
    deg(u2) > 0, and supp(u2) disjoint from supp(K).
    """
    supp_i, supp_j, supp_k = i_part.support(), j_part.support(), k_part.support()
    if supp_j & supp_i or supp_j & supp_k:
        return False
    jk = ideal_product(j_part, k_part)
    if set(i_part.generators) & set(jk.generators):
        return False
    k_vars = {i_part.variables.index(v) for v in supp_k}
    for u in i_part.generators:
        if not _factors_through(u, k_part, k_vars):
            return False
    return True


def _factors_through(u: Multidegree, k_part: MonomialIdeal, k_var_idx: set[int]) -> bool:
    for u1 in k_part.generators:
        if not divides(u1, u):
            continue
        u2 = quotient(u, u1)
        if u2.degree() > 0 and not any(
            u2.exponents[i] for i in k_var_idx
        ):
            return True
    return False


def verify_betti_splitting(
    whole: MonomialIdeal,
    j_part: MonomialIdeal,
    k_part: MonomialIdeal,
    field: FieldSpec = FieldSpec(),
) -> tuple[bool, Optional[tuple[int, Multidegree]]]:
    """Oracle check that I = J + K is a Betti splitting.

    Requires G(I) to be the disjoint union of G(J) and G(K).  Returns
    (True, None) or (False, first violating (i, a)).  The degenerate split
    with one empty part is accepted without any homology work.
    """
    gi, gj, gk = (
        set(whole.generators),
        set(j_part.generators),
        set(k_part.generators),
    )
    if gj & gk or gj | gk != gi:
        raise ValueError("G(I) must be the disjoint union of G(J) and G(K)")
    if not gj or not gk:
        return True, None
    meet = ideal_intersect(j_part, k_part)
    tables = [multigraded_betti(x, field) for x in (whole, j_part, k_part, meet)]
    witness = splitting_violation(*tables)
    return witness is None, witness


def splitting_violation(
    t_whole: BettiTable, t_j: BettiTable, t_k: BettiTable, t_meet: BettiTable
) -> Optional[tuple[int, Multidegree]]:
    """First (i, a) with beta_{i,a}(I) != beta_{i,a}(J) + beta_{i,a}(K) +
    beta_{i-1,a}(J ∩ K), from the tables of I, J, K and J ∩ K; None if the
    split is a Betti splitting."""
    keys = set(t_whole.entries) | set(t_j.entries) | set(t_k.entries)
    keys |= {(i + 1, a) for (i, a) in t_meet.entries}
    for i, a in sorted(keys):
        expected = t_j.entry(i, a) + t_k.entry(i, a) + t_meet.entry(i - 1, a)
        if t_whole.entry(i, a) != expected:
            return i, a
    return None


def _check_disjoint_tables(ti: BettiTable, tj: BettiTable) -> None:
    if ti.variables != tj.variables:
        raise ValueError("tables over different variable sets")
    supp_i = frozenset().union(*(a.support() for _, a in ti.entries))
    supp_j = frozenset().union(*(a.support() for _, a in tj.entries))
    if supp_i & supp_j:
        raise ValueError(f"supports overlap: {sorted(supp_i & supp_j)}")


def betti_product_disjoint(ti: BettiTable, tj: BettiTable) -> BettiTable:
    """Betti table of I*J from the tables of support-disjoint I and J:
    a convolution in the homological index, multidegrees multiply."""
    _check_disjoint_tables(ti, tj)
    entries: dict[tuple[int, Multidegree], int] = {}
    for (i, a), c in ti.entries.items():
        for (j, b), d in tj.entries.items():
            key = (i + j, a * b)
            entries[key] = entries.get(key, 0) + c * d
    return BettiTable(ti.variables, entries)


def betti_sum_disjoint(ti: BettiTable, tj: BettiTable) -> BettiTable:
    """Betti table of I + J for support-disjoint I and J.

    The convolution runs over index pairs j + k = i - 1 with j, k >= -1,
    where index -1 carries a formal unit entry (multiplicity 1 at
    multidegree 0).  That convention makes pdim(I+J) = pdim(I) + pdim(J) + 1
    come out of the same formula with no special cases.
    """
    _check_disjoint_tables(ti, tj)
    one = ti.variables.one()
    aug_i = {(-1, one): 1, **ti.entries}
    aug_j = {(-1, one): 1, **tj.entries}
    entries: dict[tuple[int, Multidegree], int] = {}
    for (i, a), c in aug_i.items():
        for (j, b), d in aug_j.items():
            if i == -1 and j == -1:
                continue
            key = (i + j + 1, a * b)
            entries[key] = entries.get(key, 0) + c * d
    return BettiTable(ti.variables, entries)


@lru_cache(maxsize=None)
def mapping_cone_upper_bound(n: int, i: int) -> int:
    """Recursive upper bound on the i-th total Betti number of the crown
    edge ideal, from the mapping cone over the splitting
    I_n = (I_{n-1} + x_n*A) + y_n^{w_n}*B.

    The two complete intersections A and B each contribute C(n-1, i+1);
    the colon chain bounds the intersection part by
    (n-1)*C(2n-4, i-1) + bound(n-1, i-1).  Base case: the complete
    intersection I_2.
    """
    if n < 2:
        raise ValueError(f"crown bound needs n >= 2, got {n}")
    if i < 0:
        return 0
    if n == 2:
        return {0: 2, 1: 1}.get(i, 0)
    if i == 0:
        return n * (n - 1)
    return (
        mapping_cone_upper_bound(n - 1, i)
        + 2 * mapping_cone_upper_bound(n - 1, i - 1)
        + 2 * binomial(n - 1, i + 1)
        + (n - 1) * binomial(2 * n - 4, i - 1)
    )


@dataclass(frozen=True)
class CrownColonComponents:
    """The ideals Q_s, P_s and C from the colon chain used in the crown
    upper-bound argument."""

    q: MonomialIdeal
    p: MonomialIdeal
    c: MonomialIdeal


def _crown_without_last_pair(n: int, weights: Sequence[int]) -> MonomialIdeal:
    """I_{n-1}: the edge ideal of the crown on the first n - 1 pairs, inside
    the 2n-variable ring of the crown graph on n pairs."""
    first_pairs = [f"{v}{r}" for v in "xy" for r in range(1, n)]
    return edge_ideal(induced_subgraph(crown(n, weights), first_pairs))


def crown_splitting(
    n: int, weights: Sequence[int]
) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The parts (J, K) of the standard splitting I_n = J + K of the crown
    edge ideal: J = I_{n-1} + x_n*A and K = y_n^{w_n}*B, where
    A = (y_1^{w_1}, ..., y_{n-1}^{w_{n-1}}) and B = (x_1, ..., x_{n-1})."""
    if n < 2:
        raise ValueError(f"crown splitting needs n >= 2, got {n}")
    variables = xy_variables(n)
    a_part = minimalize(
        variables,
        [variables.variable(f"y{j}", weights[j - 1]) for j in range(1, n)],
    )
    b_part = minimalize(
        variables, [variables.variable(f"x{i}") for i in range(1, n)]
    )
    j_part = ideal_sum(
        _crown_without_last_pair(n, weights), scale(variables.variable(f"x{n}"), a_part)
    )
    k_part = scale(variables.variable(f"y{n}", weights[n - 1]), b_part)
    return j_part, k_part


def crowncolon_components(
    n: int, weights: Sequence[int], s: int
) -> CrownColonComponents:
    """Build Q_s = (I_{n-1}, x_n*x_1*y_1^{w_1}, ..., x_n*x_s*y_s^{w_s}),
    P_s = Q_{s-1} : x_n*x_s*y_s^{w_s}, and C = Q_{n-1}, all inside the
    2n-variable ring of the crown graph on n pairs.

    P_s is checked against its closed form: the complete intersection on
    the variables x_r and y_r^{w_r} for r < n, r != s.
    """
    if not (1 <= s <= n - 1):
        raise ValueError(f"need 1 <= s <= n - 1, got s = {s} for n = {n}")
    variables = xy_variables(n)
    sub = _crown_without_last_pair(n, weights)

    def link(r: int) -> Multidegree:
        return (
            variables.variable(f"x{n}")
            * variables.variable(f"x{r}")
            * variables.variable(f"y{r}", weights[r - 1])
        )

    def q_ideal(upto: int) -> MonomialIdeal:
        extra = [link(r) for r in range(1, upto + 1)]
        return minimalize(variables, sub.generators + tuple(extra))

    p = colon_by_monomial(q_ideal(s - 1), link(s))
    expected = minimalize(
        variables,
        [variables.variable(f"x{r}") for r in range(1, n) if r != s]
        + [
            variables.variable(f"y{r}", weights[r - 1])
            for r in range(1, n)
            if r != s
        ],
    )
    if p != expected:
        raise AssertionError(
            f"colon ideal P_{s} deviates from its closed form: {p} != {expected}"
        )
    return CrownColonComponents(q=q_ideal(s), p=p, c=q_ideal(n - 1))
