"""Closed forms for Betti numbers of generalized-crown edge ideals.

A shape (m, s, t) is the graph on x1..xs, y1..yt with every edge xi -> yj
except the m missing pairs (xr, yr), r <= m, and weights on y1..yt; the
crown on n pairs is (n, n, n).  Every induced subgraph of a shape is again
one, and by the induced-subgraph approach beta_{i,a} is nonzero only at
a = theta(G[W]) for a vertex set W with no isolated vertex, where it is the
top Betti number of G[W]: k - 1 if W holds k >= 2 missing pairs, 1 if it
holds none, 0 if it holds one.  Everything here is pure combinatorics on
those vertex selections.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .graphs import (
    WeightedOrientedGraph,
    complete_bipartite,
    crown,
    generalized_crown,
    induced_subgraph,
    theta,
    unbalanced_crown,
)
from .homology import BettiTable
from .multidegree import Multidegree, _xy_variables, binomial


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


def _check_shape(m: int, s: int, t: int, weights: Sequence[int]) -> None:
    if not (s >= 1 and t >= 1 and 0 <= m <= min(s, t)):
        raise ValueError(
            f"a shape needs s, t >= 1 and 0 <= m <= min(s, t), got (m, s, t) = ({m}, {s}, {t})"
        )
    if (m, s, t) == (1, 1, 1):
        raise ValueError("the shape (1, 1, 1) has no edges")
    if len(weights) != t:
        raise ValueError(f"expected {t} weights, got {len(weights)}")
    if not all(isinstance(w, int) and not isinstance(w, bool) and w >= 1 for w in weights):
        raise ValueError(f"weights must be positive integers, got {tuple(weights)}")


def _selections(
    m: int, s: int, t: int, weights: Sequence[int], pairs: int, lone: int, two_sided: bool
) -> Iterator[tuple[int, ...]]:
    """Exponent tuples over x1..xs, y1..yt of the vertex selections of the
    shape (m, s, t) made of `pairs` missing pairs {xr, yr}, r <= m, plus
    `lone` further slots: an unpaired r <= m gives xr or yr, and each xr
    or yr with r > m is its own slot.  With `two_sided`, the selections
    whose vertices all lie on one side are dropped."""
    _check_shape(m, s, t, weights)
    if lone < 0:
        return
    for paired in combinations(range(m), pairs):
        base = [0] * (s + t)
        for r in paired:
            base[r], base[s + r] = 1, weights[r]
        slots = [((r, 1), (s + r, weights[r])) for r in range(m) if r not in paired]
        slots += [((r, 1),) for r in range(m, s)]
        slots += [((s + r, weights[r]),) for r in range(m, t)]
        for extra in combinations(slots, lone):
            for choice in product(*extra):
                exps = base.copy()
                for pos, e in choice:
                    exps[pos] = e
                if two_sided and not (any(exps[:s]) and any(exps[s:])):
                    continue
                yield tuple(exps)


def enumerate_N(
    m: int, s: int, t: int, weights: Sequence[int], i: int, k: int
) -> frozenset[Multidegree]:
    """theta(G[W]) over the vertex sets W of the shape (m, s, t) with
    exactly k >= 2 missing pairs and i + 3 vertices.

    W is k pair indices plus i + 3 - 2k further slots; theta(G[W]) is the
    product of the chosen x's and the chosen y's raised to their weights.
    """
    if k < 2 or k > m:
        raise ValueError(f"need 2 <= k <= m, got k = {k}")
    variables = _xy_variables(s, t)
    return frozenset(
        Multidegree(variables, e) for e in _selections(m, s, t, weights, k, i + 3 - 2 * k, False)
    )


def enumerate_M(m: int, s: int, t: int, weights: Sequence[int], i: int) -> frozenset[Multidegree]:
    """theta(G[W]) over the vertex sets W of the shape (m, s, t) with no
    missing pair, i + 2 vertices and both sides nonempty."""
    variables = _xy_variables(s, t)
    return frozenset(
        Multidegree(variables, e) for e in _selections(m, s, t, weights, 0, i + 2, True)
    )


def _index_entries(
    m: int, s: int, t: int, weights: Sequence[int], i: int
) -> Iterator[tuple[Multidegree, int]]:
    """The nonzero (a, beta_{i,a}) of the shape at index i: one per vertex
    set W with no isolated vertex, valued by the top entry of G[W].  The
    one-pair sets are left out: their top value is 0."""
    for k in range(2, m + 1):
        _, value = _top_entry(k, i + 3)
        for a in enumerate_N(m, s, t, weights, i, k):
            yield a, value
    _, value = _top_entry(0, i + 2)
    for a in enumerate_M(m, s, t, weights, i):
        yield a, value


def shape_betti_formula(m: int, s: int, t: int, weights: Sequence[int]) -> BettiTable:
    """Predicted multigraded Betti table of the edge ideal of the shape
    (m, s, t) with y-weights `weights`."""
    _check_shape(m, s, t, weights)
    entries = {
        (i, a): value
        for i in range(s + t - 1)  # a vertex set W reaches index |W| - 2 at most
        for a, value in _index_entries(m, s, t, weights, i)
    }
    return BettiTable(_xy_variables(s, t), entries)


def shape_graded_formula(
    m: int, s: int, t: int, weights: Sequence[int]
) -> dict[tuple[int, int], int]:
    """Predicted graded Betti numbers beta_{i,j} of the shape (m, s, t),
    counted without listing the vertex selections.

    A selection's entry depends only on its number of missing pairs, its
    size, the degree of theta(G[W]) and which sides it uses, so a DP over
    the indices r counts the selections per such state.  At each r the
    selection takes nothing, xr (degree 1, if r <= s), yr (degree w_r, if
    r <= t) or both, which is one more missing pair when r <= m.
    """
    _check_shape(m, s, t, weights)
    # (pairs, size, degree, sides) -> number of selections; sides has bit 1
    # for an x and bit 2 for a y
    states = {(0, 0, 0, 0): 1}
    for r in range(max(s, t)):
        steps = [(0, 0, 0, 0)]
        if r < s:
            steps.append((0, 1, 1, 1))
        if r < t:
            steps.append((0, 1, weights[r], 2))
        if r < s and r < t:
            steps.append((int(r < m), 2, 1 + weights[r], 3))
        grown: dict[tuple[int, int, int, int], int] = {}
        for (pairs, size, degree, sides), count in states.items():
            for d_pairs, d_size, d_degree, d_sides in steps:
                key = (pairs + d_pairs, size + d_size, degree + d_degree, sides | d_sides)
                grown[key] = grown.get(key, 0) + count
        states = grown
    graded: dict[tuple[int, int], int] = {}
    for (pairs, size, degree, sides), count in states.items():
        if pairs == 1 or sides != 3:  # one pair, or an edgeless selection
            continue
        i, value = _top_entry(pairs, size)
        graded[i, degree] = graded.get((i, degree), 0) + count * value
    return graded


def multigraded_betti_formula(n: int, weights: Sequence[int]) -> BettiTable:
    """Predicted multigraded Betti table of the crown edge ideal."""
    return shape_betti_formula(n, n, n, weights)


def graded_betti_formula(n: int, weights: Sequence[int], i: int, j: int) -> int:
    """Predicted graded Betti number beta_{i,j} of the crown edge ideal."""
    return shape_graded_formula(n, n, n, weights).get((i, j), 0)


def regularity_formula(n: int, weights: Sequence[int]) -> int:
    """Regularity of the crown edge ideal: sum of weights - n + 3."""
    _check_shape(n, n, n, weights)
    return sum(weights) - n + 3


@dataclass(frozen=True)
class FamilyTopBetti:
    """Projective dimension and top multigraded Betti entry of a family
    member: the top entry sits at the lcm of all edge-ideal generators."""

    pdim: int
    top_multidegree: Multidegree
    top_value: int


def _top_entry(pairs: int, size: int) -> tuple[int, int]:
    """(index, value) of the top Betti entry of a shape on `size` vertices,
    none of them isolated, with `pairs` missing pairs: (size - 3, pairs - 1)
    for pairs >= 1, so value 0 for one pair, and (size - 2, 1) for a
    complete bipartite graph."""
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
    graph = constructor(*params, weights)
    m, s, t = shape(*params)
    index, value = _top_entry(m, s + t)
    # no vertex is isolated, so theta is x_i for i <= s times y_j^{w_j} for j <= t
    return FamilyTopBetti(index, Multidegree(graph.vertices, (1,) * s + tuple(weights)), value)


def predicted_contribution(
    n: int, weights: Sequence[int], subset: Iterable[str]
) -> Optional[tuple[int, Multidegree, int]]:
    """Top Betti contribution (index, theta, value) of the induced subgraph
    of the crown on a vertex subset W, or None when W has an isolated
    vertex (an edgeless W included) or holds exactly one pair {xr, yr}."""
    chosen = set(subset)
    sub = induced_subgraph(crown(n, weights), chosen)
    pairs = sum(f"y{v[1:]}" in chosen for v in chosen if v[0] == "x")
    if not sub.edges or sub.non_isolated() != chosen or pairs == 1:
        return None
    index, value = _top_entry(pairs, len(chosen))
    return index, theta(sub), value
