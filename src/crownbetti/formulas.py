"""Closed forms for Betti numbers of crown-type edge ideals.

Everything here is pure combinatorics on vertex selections: the multidegrees
carrying nonzero Betti numbers come in two families, the crown-like
selections with k >= 2 complete pairs (multiplicity k - 1) and the
complete-bipartite selections with no pair (multiplicity 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import (
    SubgraphKind,
    WeightedOrientedGraph,
    classify_induced,
    complete_bipartite,
    crown,
    generalized_crown,
    induced_subgraph,
    theta,
    unbalanced_crown,
)
from .homology import BettiTable
from .multidegree import Multidegree, binomial, xy_variables


def total_betti_closed_form(n: int, i: int) -> int:
    """Total Betti number of the crown edge ideal on n pairs; independent
    of the vertex weights.  Vanishes outside 0 <= i <= 2n - 3."""
    if n < 2:
        raise ValueError(f"crown graph needs n >= 2, got {n}")
    if i < 0:
        return 0
    total = (2 ** (i + 2) - 2) * binomial(n, i + 2)
    for k in range(2, n + 1):
        j = i + 3 - 2 * k
        if j < 0:
            continue
        total += (k - 1) * 2**j * binomial(n, k) * binomial(n - k, j)
    return total


def _check_crown_args(n: int, weights: Sequence[int]) -> None:
    if n < 2:
        raise ValueError(f"crown graph needs n >= 2, got {n}")
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    if not all(isinstance(w, int) and not isinstance(w, bool) and w >= 1 for w in weights):
        raise ValueError(f"weights must be positive integers, got {tuple(weights)}")


def _selections(
    n: int, weights: Sequence[int], pairs: int, lone: int, two_sided: bool
) -> Iterator[tuple[int, ...]]:
    """Exponent tuples over x1..xn, y1..yn of the selections of `pairs`
    complete pairs {xr, yr} plus `lone` further indices, each contributing
    either its x- or its y-vertex; with `two_sided`, the selections whose
    lone vertices all lie on one side are dropped."""
    sides = range(1, (1 << lone) - 1) if two_sided else range(1 << lone)
    for paired in combinations(range(n), pairs):
        base = [0] * (2 * n)
        for r in paired:
            base[r], base[n + r] = 1, weights[r]
        rest = [r for r in range(n) if r not in paired]
        for extra in combinations(rest, lone):
            for side in sides:
                exps = base.copy()
                for pos, r in enumerate(extra):
                    if side >> pos & 1:
                        exps[r] = 1
                    else:
                        exps[n + r] = weights[r]
                yield tuple(exps)


def enumerate_N(
    n: int, weights: Sequence[int], i: int, k: int
) -> frozenset[Multidegree]:
    """Top multidegrees of the crown-like induced subgraphs with exactly k
    complete pairs on i + 3 vertices.

    A selection is k pair indices plus i + 3 - 2k leftover indices, each
    contributing either its x- or its y-vertex; its multidegree is the
    product of the chosen x's and the chosen y's raised to their weights.
    """
    if k < 2 or k > n:
        raise ValueError(f"need 2 <= k <= n, got k = {k}")
    singles = i + 3 - 2 * k
    if singles < 0:
        return frozenset()
    variables = xy_variables(n)
    return frozenset(
        Multidegree(variables, e) for e in _selections(n, weights, k, singles, False)
    )


def enumerate_M(n: int, weights: Sequence[int], i: int) -> frozenset[Multidegree]:
    """Top multidegrees of the complete-bipartite induced subgraphs on
    i + 2 vertices with no complete pair and both sides nonempty."""
    variables = xy_variables(n)
    return frozenset(Multidegree(variables, e) for e in _selections(n, weights, 0, i + 2, True))


def multigraded_betti_formula(n: int, weights: Sequence[int]) -> BettiTable:
    """Predicted multigraded Betti table of the crown edge ideal:
    multiplicity k - 1 on the k-pair selections, 1 on the pair-free ones."""
    _check_crown_args(n, weights)
    variables = xy_variables(n)
    entries: dict[tuple[int, Multidegree], int] = {}
    for i in range(0, 2 * n - 2):
        for k in range(2, n + 1):
            for a in enumerate_N(n, weights, i, k):
                entries[(i, a)] = k - 1
        for a in enumerate_M(n, weights, i):
            entries[(i, a)] = 1
    return BettiTable(variables, entries)


def graded_betti_formula(n: int, weights: Sequence[int], i: int, j: int) -> int:
    """Predicted graded Betti number beta_{i,j} of the crown edge ideal."""
    _check_crown_args(n, weights)
    count = sum(
        (k - 1)
        for k in range(2, n + 1)
        for a in enumerate_N(n, weights, i, k)
        if a.degree() == j
    )
    count += sum(1 for a in enumerate_M(n, weights, i) if a.degree() == j)
    return count


def regularity_formula(n: int, weights: Sequence[int]) -> int:
    """Regularity of the crown edge ideal: sum of weights - n + 3."""
    _check_crown_args(n, weights)
    return sum(weights) - n + 3


@dataclass(frozen=True)
class FamilyTopBetti:
    """Projective dimension and top multigraded Betti entry of a family
    member: the top entry sits at the lcm of all edge-ideal generators."""

    pdim: int
    top_multidegree: Multidegree
    top_value: int


def _top_entry(pairs: int, size: int) -> tuple[int, int]:
    """(index, value) of the top Betti entry of a generalized crown on
    `size` vertices with `pairs` missing pairs: (size - 3, pairs - 1) for
    pairs >= 2, and (size - 2, 1) for a complete bipartite graph."""
    return (size - 3, pairs - 1) if pairs else (size - 2, 1)


# kind -> (graph constructor, number of integer parameters before the weights,
#          params -> (m, s, t) of the generalized-crown shape it builds)
FAMILIES: dict[
    str, tuple[Callable[..., WeightedOrientedGraph], int, Callable[..., tuple[int, int, int]]]
] = {
    "crown": (crown, 1, lambda n: (n, n, n)),
    "unbalanced": (unbalanced_crown, 2, lambda s, t: (t, s, t)),
    "generalized": (generalized_crown, 3, lambda m, s, t: (m, s, t)),
    "complete_bipartite": (complete_bipartite, 2, lambda s, t: (0, s, t)),
}


def family_top_betti(
    kind: str, params: Sequence[int], weights: Sequence[int]
) -> FamilyTopBetti:
    """Top Betti data for one of the four families.

    kind is one of "crown" (param s), "unbalanced" (s, t), "generalized"
    (m, s, t), "complete_bipartite" (s, t).  The generalized family's top
    value is m - 1.
    """
    if kind not in FAMILIES:
        raise ValueError(f"unknown family kind: {kind!r}")
    constructor, arity, shape = FAMILIES[kind]
    if len(params) != arity:
        raise ValueError(f"family {kind!r} takes {arity} parameter(s)")
    top = theta(constructor(*params, weights))
    m, s, t = shape(*params)
    index, value = _top_entry(m, s + t)
    return FamilyTopBetti(index, top, value)


def predicted_contribution(
    n: int, weights: Sequence[int], subset: Iterable[str]
) -> Optional[tuple[int, Multidegree, int]]:
    """Top Betti contribution of the induced subgraph on a vertex subset.

    Crown-like selections with k pairs contribute (|W| - 3, theta, k - 1);
    pair-free two-sided selections contribute (|W| - 2, theta, 1);
    one-pair and degenerate selections contribute nothing.
    """
    chosen = set(subset)
    cls = classify_induced(n, chosen)
    if cls.kind in (SubgraphKind.ONE_PAIR, SubgraphKind.DEGENERATE):
        return None
    index, value = _top_entry(cls.pairs, len(chosen))
    return index, theta(induced_subgraph(crown(n, weights), chosen)), value
