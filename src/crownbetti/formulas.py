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
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .graphs import _check_shape, _family_shape
from .homology import BettiTable
from .multidegree import Multidegree, _xy_variables, binomial


def total_betti_closed_form(n: int, i: int) -> int:
    """Total Betti number of the crown edge ideal on n pairs; independent
    of the vertex weights.  Vanishes outside 0 <= i <= 2n - 3."""
    _family_shape("crown", (n,))
    if i < 0:
        return 0
    total = (2 ** (i + 2) - 2) * binomial(n, i + 2)
    for k in range(2, n + 1):
        j = i + 3 - 2 * k
        if j < 0:
            continue
        total += (k - 1) * 2**j * binomial(n, k) * binomial(n - k, j)
    return total


def _selections(
    m: int, s: int, t: int, weights: Sequence[int], pairs: int, size: int
) -> Iterator[tuple[int, ...]]:
    """Exponent tuples over x1..xs, y1..yt of the `size`-vertex selections
    of the shape (m, s, t) holding `pairs` missing pairs {xr, yr}, r <= m.
    The rest fill one slot each: an unpaired r <= m gives xr or yr, and each
    xr or yr with r > m is its own slot.  With no pair, a selection may lie
    on one side and hold no edge; those are dropped."""
    _check_shape(m, s, t, weights)
    lone = size - 2 * pairs
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
                if not pairs and len({pos < s for pos, _ in choice}) < 2:
                    continue
                exps = base.copy()
                for pos, e in choice:
                    exps[pos] = e
                yield tuple(exps)


def enumerate_N(
    m: int, s: int, t: int, weights: Sequence[int], i: int, k: int
) -> list[tuple[int, ...]]:
    """theta(G[W]) over the vertex sets W of the shape (m, s, t) with
    exactly k >= 2 missing pairs and i + 3 vertices: exponent tuples over
    x1..xs, y1..yt, in increasing order.

    W is k pair indices plus i + 3 - 2k further slots; theta(G[W]) is the
    product of the chosen x's and the chosen y's raised to their weights.
    Distinct W give distinct theta(G[W]), so no tuple repeats.
    """
    if k < 2 or k > m:
        raise ValueError(f"need 2 <= k <= m, got k = {k}")
    return sorted(_selections(m, s, t, weights, k, i + 3))


def enumerate_M(
    m: int, s: int, t: int, weights: Sequence[int], i: int
) -> list[tuple[int, ...]]:
    """theta(G[W]) over the vertex sets W of the shape (m, s, t) with no
    missing pair, i + 2 vertices and both sides nonempty: exponent tuples
    over x1..xs, y1..yt, in increasing order, none repeated."""
    return sorted(_selections(m, s, t, weights, 0, i + 2))


def _formula_rows(
    m: int, s: int, t: int, weights: Sequence[int]
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """The rows (i, theta(G[W]), value) of the shape (m, s, t) in increasing
    order, one per vertex set W with no isolated vertex and not one missing
    pair, valued by the top entry of G[W]; theta(G[W]) is an exponent tuple
    over x1..xs, y1..yt.  An index's rows are the sorted runs of enumerate_N
    and enumerate_M, which one list.sort merges; no two rows share (i, theta)."""
    _check_shape(m, s, t, weights)
    for i in range(s + t - 1):  # a vertex set W reaches index |W| - 2 at most
        rows = []
        for k in range(2, m + 1):
            _, value = _top_entry(k, i + 3)
            rows += [(i, e, value) for e in enumerate_N(m, s, t, weights, i, k)]
        _, value = _top_entry(0, i + 2)
        rows += [(i, e, value) for e in enumerate_M(m, s, t, weights, i)]
        rows.sort(key=itemgetter(1))  # one index: the exponents alone order the rows
        yield from rows


def shape_betti_formula(m: int, s: int, t: int, weights: Sequence[int]) -> BettiTable:
    """Predicted multigraded Betti table of the edge ideal of the shape
    (m, s, t) with y-weights `weights`: the rows of _formula_rows."""
    _check_shape(m, s, t, weights)
    variables = _xy_variables(s, t)
    return BettiTable(
        variables,
        {(i, Multidegree(variables, e)): c for i, e, c in _formula_rows(m, s, t, weights)},
    )


def _entry_states(
    m: int, s: int, t: int, weights: Sequence[int]
) -> Iterator[tuple[int, int, int, int]]:
    """(i, degree, value, count) over the states of the vertex selections
    of the shape (m, s, t) that carry a nonzero entry: `count` selections
    W each give beta_{i,a} = value at one a = theta(G[W]) of that degree.

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
    for (pairs, size, degree, sides), count in states.items():
        entry = _selection_entry(pairs, size, sides)
        if entry:
            yield entry[0], degree, entry[1], count


def _point_entry(
    m: int, s: int, t: int, weights: Sequence[int], exps: Sequence[int]
) -> Optional[tuple[int, int]]:
    """(i, value) of the entry the closed form of the shape (m, s, t) puts
    at the point with exponents `exps` over x1..xs, y1..yt, or None where it
    puts none.  A point of the lcm lattice is theta(G[W]) of a vertex
    selection W, each xr exponent 0 or 1 and each yr exponent 0 or w_r, and
    W carries the entry _selection_entry gives it, the rule of _selections
    and _entry_states; a point not of that form carries none."""
    xs, ys = exps[:s], exps[s:]
    if any(e not in (0, 1) for e in xs) or any(e not in (0, w) for e, w in zip(ys, weights)):
        return None
    pairs = sum(1 for r in range(m) if xs[r] and ys[r])
    sides = any(xs) | any(ys) << 1
    return _selection_entry(pairs, sum(map(bool, exps)), sides)


def shape_graded_formula(
    m: int, s: int, t: int, weights: Sequence[int]
) -> dict[tuple[int, int], int]:
    """Predicted graded Betti numbers beta_{i,j} of the shape (m, s, t),
    counted without listing the vertex selections."""
    graded: dict[tuple[int, int], int] = {}
    for i, degree, value, count in _entry_states(m, s, t, weights):
        graded[i, degree] = graded.get((i, degree), 0) + count * value
    return graded


def shape_entry_count(m: int, s: int, t: int, weights: Sequence[int]) -> int:
    """Number of nonzero entries of shape_betti_formula(m, s, t, weights),
    independent of the weights: distinct selections have distinct
    theta(G[W]), so it counts the selections that carry an entry.  Each
    r <= m gives none, xr, yr or both, and 4^m - m 3^(m-1) of those choices
    do not hold exactly one pair; each further vertex is in or out; and the
    selections on one side alone (2^s + 2^t - 1 of them) carry none."""
    _check_shape(m, s, t, weights)
    return 2 ** (s + t - 2 * m) * (4**m - m * 3 ** max(m - 1, 0)) - 2**s - 2**t + 1


def multigraded_betti_formula(n: int, weights: Sequence[int]) -> BettiTable:
    """Predicted multigraded Betti table of the crown edge ideal."""
    return shape_betti_formula(*_family_shape("crown", (n,)), weights)


def graded_betti_formula(n: int, weights: Sequence[int], i: int, j: int) -> int:
    """Predicted graded Betti number beta_{i,j} of the crown edge ideal."""
    return shape_graded_formula(*_family_shape("crown", (n,)), weights).get((i, j), 0)


def regularity_formula(n: int, weights: Sequence[int]) -> int:
    """Regularity of the crown edge ideal: sum of weights - n + 3."""
    _check_shape(*_family_shape("crown", (n,)), weights)
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


def _selection_entry(pairs: int, size: int, sides: int) -> Optional[tuple[int, int]]:
    """(index, value) of the entry a vertex selection W carries at
    theta(G[W]), from its number of missing pairs, its number of vertices
    and its sides (bit 1 for an x, bit 2 for a y), or None: a selection
    with exactly one missing pair carries none, and neither does one on
    one side only, which holds no edge."""
    if pairs == 1 or sides != 3:
        return None
    return _top_entry(pairs, size)


def family_top_betti(
    kind: str, params: Sequence[int], weights: Sequence[int]
) -> FamilyTopBetti:
    """Top Betti data for one of the four families.

    kind is one of "crown" (param s), "unbalanced" (s, t), "generalized"
    (m, s, t), "complete_bipartite" (s, t).  The generalized family's top
    value is m - 1.  It is read off the family's shape; no graph is built.
    """
    m, s, t = _family_shape(kind, params)
    _check_shape(m, s, t, weights)
    index, value = _top_entry(m, s + t)
    # no vertex is isolated, so theta is x_i for i <= s times y_j^{w_j} for j <= t
    return FamilyTopBetti(index, Multidegree(_xy_variables(s, t), (1,) * s + tuple(weights)), value)

