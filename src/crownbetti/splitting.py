"""Betti splittings, Taylor tables of dominant ideals, and the recursive
upper bound for crown graphs."""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Optional, Sequence

from .graphs import _family_shape, crown, edge_ideal
from .homology import BettiTable, FieldSpec, multigraded_betti
from .ideals import (
    MonomialIdeal,
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


class _NotASplit(ValueError):
    """G(I) is not the disjoint union of G(J) and G(K): the one ValueError
    of _splitting_tables that is about the split, not about its tables."""


def _splitting_tables(
    whole: MonomialIdeal, j_part: MonomialIdeal, k_part: MonomialIdeal, field: FieldSpec
) -> Optional[tuple[BettiTable, BettiTable, BettiTable, BettiTable]]:
    """The oracle tables of I, J, K and J ∩ K, or None for a split with an
    empty part; _NotASplit unless G(I) is the disjoint union of G(J), G(K)."""
    gi, gj, gk = (set(x.generators) for x in (whole, j_part, k_part))
    if gj & gk or gj | gk != gi:
        raise _NotASplit("G(I) must be the disjoint union of G(J) and G(K)")
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


def mapping_cone_upper_bound(n: int, i: int) -> int:
    """Recursive upper bound on the i-th total Betti number of the crown
    edge ideal, from the mapping cone over the splitting
    I_n = (I_{n-1} + x_n*A) + y_n^{w_n}*B.

    The two complete intersections A and B each contribute C(n-1, i+1);
    the colon chain bounds the intersection part by
    (n-1)*C(2n-4, i-1) + bound(n-1, i-1).  Base case: the complete
    intersection I_2.  The recursion is evaluated bottom-up over n, one
    row of indices 0..i at a time; checks.check_colon_chain checks the
    colon chain and the bound against the closed-form totals.
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
