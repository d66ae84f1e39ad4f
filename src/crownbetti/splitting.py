"""Betti splittings, Taylor tables of dominant ideals, support-disjoint
product/sum convolutions, and the recursive upper bound for crown graphs."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from .graphs import _family_shape, crown, edge_ideal
from .homology import BettiTable, FieldSpec, multigraded_betti
from .ideals import (
    MonomialIdeal,
    colon_by_monomial,
    ideal_intersect,
    ideal_product,
    is_dominant,
    minimalize,
)
from .multidegree import Multidegree, binomial, divides, lcm_of, quotient


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
    tables = _splitting_tables(whole, j_part, k_part, field)
    if tables is None:
        return True, None
    witness = splitting_violation(*tables)
    return witness is None, witness


def _splitting_tables(
    whole: MonomialIdeal, j_part: MonomialIdeal, k_part: MonomialIdeal, field: FieldSpec
) -> Optional[tuple[BettiTable, BettiTable, BettiTable, BettiTable]]:
    """The oracle tables of I, J, K and J ∩ K, or None for a split with an
    empty part; ValueError unless G(I) is the disjoint union of G(J), G(K)."""
    gi, gj, gk = (set(x.generators) for x in (whole, j_part, k_part))
    if gj & gk or gj | gk != gi:
        raise ValueError("G(I) must be the disjoint union of G(J) and G(K)")
    if not gj or not gk:
        return None
    meet = ideal_intersect(j_part, k_part)
    return tuple(multigraded_betti(x, field) for x in (whole, j_part, k_part, meet))


def splitting_violation(
    t_whole: BettiTable, t_j: BettiTable, t_k: BettiTable, t_meet: BettiTable
) -> Optional[tuple[int, Multidegree]]:
    """First (i, a) with beta_{i,a}(I) != beta_{i,a}(J) + beta_{i,a}(K) +
    beta_{i-1,a}(J ∩ K), from the tables of I, J, K and J ∩ K; None if the
    split is a Betti splitting."""
    parts = Counter(t_j.entries) + Counter(t_k.entries) + Counter(t_meet.quotient_shifted().entries)
    keys = t_whole.differences(BettiTable(t_whole.variables, dict(parts)))
    return keys[0] if keys else None


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


def mapping_cone_upper_bound(n: int, i: int) -> int:
    """Recursive upper bound on the i-th total Betti number of the crown
    edge ideal, from the mapping cone over the splitting
    I_n = (I_{n-1} + x_n*A) + y_n^{w_n}*B.

    The two complete intersections A and B each contribute C(n-1, i+1);
    the colon chain bounds the intersection part by
    (n-1)*C(2n-4, i-1) + bound(n-1, i-1).  Base case: the complete
    intersection I_2.  The recursion is evaluated bottom-up over n, one
    row of indices 0..i at a time.
    """
    _family_shape("crown", (n,))
    if i < 0:
        return 0
    row = [{0: 2, 1: 1}.get(k, 0) for k in range(i + 1)]
    for m in range(3, n + 1):
        row = [
            row[k]
            + 2 * (row[k - 1] if k else 0)
            + 2 * binomial(m - 1, k + 1)
            + (m - 1) * binomial(2 * m - 4, k - 1)
            for k in range(i + 1)
        ]
    return row[i]


@dataclass(frozen=True)
class CrownColonComponents:
    """The ideals Q_s, P_s and C from the colon chain used in the crown
    upper-bound argument."""

    q: MonomialIdeal
    p: MonomialIdeal
    c: MonomialIdeal


def crown_splitting(
    n: int, weights: Sequence[int]
) -> tuple[MonomialIdeal, MonomialIdeal]:
    """The parts (J, K) of the standard splitting I_n = J + K of the crown
    edge ideal: J = I_{n-1} + x_n*A and K = y_n^{w_n}*B, where
    A = (y_1^{w_1}, ..., y_{n-1}^{w_{n-1}}) and B = (x_1, ..., x_{n-1}).
    K holds the generators x_i*y_n^{w_n} that y_n divides; J holds the rest."""
    ideal = edge_ideal(crown(n, weights))
    y_n = ideal.variables.index(f"y{n}")
    j_gens = [g for g in ideal.generators if not g.exponents[y_n]]
    k_gens = [g for g in ideal.generators if g.exponents[y_n]]
    return minimalize(ideal.variables, j_gens), minimalize(ideal.variables, k_gens)


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
    ideal = edge_ideal(crown(n, weights))
    variables = ideal.variables
    last_pair = (variables.index(f"x{n}"), variables.index(f"y{n}"))
    # I_{n-1}: the generators that touch neither x_n nor y_n
    sub = tuple(g for g in ideal.generators if not any(g.exponents[k] for k in last_pair))

    def link(r: int) -> Multidegree:
        return (
            variables.variable(f"x{n}")
            * variables.variable(f"x{r}")
            * variables.variable(f"y{r}", weights[r - 1])
        )

    def q_ideal(upto: int) -> MonomialIdeal:
        extra = [link(r) for r in range(1, upto + 1)]
        return minimalize(variables, sub + tuple(extra))

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
