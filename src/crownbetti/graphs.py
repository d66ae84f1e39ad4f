"""Weighted oriented graphs, their edge ideals, and the crown-type families.

A weighted oriented graph carries a positive integer weight on each vertex;
its edge ideal is generated by tail * head^weight(head) over the directed
edges.  The four families here (crown, unbalanced crown, generalized crown,
complete bipartite) are each a shape (m, s, t): on x1..xs, y1..yt, every
edge xi -> yj except the m missing pairs (xr, yr), r <= m.  An induced
subgraph of a shape, less its isolated vertices, is again a shape up to
renaming; its missing pairs are the pairs {xr, yr}, r <= m, that it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .ideals import MonomialIdeal, minimalize
from .multidegree import Multidegree, VariableSet, _xy_variables, lcm_of


@dataclass(frozen=True)
class WeightedOrientedGraph:
    vertices: VariableSet
    edges: frozenset[tuple[str, str]]
    weights: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "weights", dict(self.weights))
        names = set(self.vertices.names)
        seen_undirected: set[frozenset[str]] = set()
        for tail, head in self.edges:
            if tail not in names or head not in names:
                raise ValueError(f"edge ({tail}, {head}) references unknown vertex")
            if tail == head:
                raise ValueError(f"loop at {tail}")
            pair = frozenset((tail, head))
            if pair in seen_undirected:
                raise ValueError(f"multiple edges between {tail} and {head}")
            seen_undirected.add(pair)
        for v, w in self.weights.items():
            if v not in names:
                raise ValueError(f"weight given for unknown vertex {v!r}")
            if not isinstance(w, int) or isinstance(w, bool) or w < 1:
                raise ValueError(f"weight of {v} must be a positive integer, got {w!r}")
        for v in self.vertices.names:
            self.weights.setdefault(v, 1)

    def weight(self, v: str) -> int:
        return self.weights[v]

    def non_isolated(self) -> frozenset[str]:
        out: set[str] = set()
        for tail, head in self.edges:
            out.add(tail)
            out.add(head)
        return frozenset(out)


def edge_ideal(graph: WeightedOrientedGraph) -> MonomialIdeal:
    """The edge ideal: one generator tail * head^weight(head) per edge."""
    gens = []
    for tail, head in graph.edges:
        gens.append(
            graph.vertices.variable(tail) * graph.vertices.variable(head, graph.weight(head))
        )
    return minimalize(graph.vertices, gens)


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


def _xy_graph(m: int, s: int, t: int, weights: Sequence[int]) -> WeightedOrientedGraph:
    """The shape (m, s, t): the graph on x1..xs, y1..yt with every edge
    (xi, yj) except the m missing pairs (xr, yr), r <= m; weights are
    those of y1..yt."""
    _check_shape(m, s, t, weights)
    vertices = _xy_variables(s, t)
    xs, ys = vertices.names[:s], vertices.names[s:]
    edges = frozenset(
        (x, y) for i, x in enumerate(xs, 1) for j, y in enumerate(ys, 1) if i != j or i > m
    )
    return WeightedOrientedGraph(vertices, edges, dict(zip(ys, weights)))


# kind -> (whether the family admits its params, the message when it does
# not, params -> the shape (m, s, t) of the member)
FAMILIES: dict[str, tuple[Callable[..., bool], str, Callable[..., tuple[int, int, int]]]] = {
    "crown": (lambda n: n >= 2, "crown graph needs n >= 2, got {}", lambda n: (n, n, n)),
    "unbalanced": (
        lambda s, t: 1 < t < s,
        "unbalanced crown needs 1 < t < s, got (s, t) = ({}, {})",
        lambda s, t: (t, s, t),
    ),
    # the m = t corner is not admitted; that shape is reachable as an
    # induced subgraph of a crown graph instead
    "generalized": (
        lambda m, s, t: 1 < m < s and m < t,
        "generalized crown needs 1 < m < s and m < t, got (m, s, t) = ({}, {}, {})",
        lambda m, s, t: (m, s, t),
    ),
    "complete_bipartite": (
        lambda s, t: s >= 1 and t >= 1,
        "complete bipartite needs s, t >= 1, got ({}, {})",
        lambda s, t: (0, s, t),
    ),
}


def _family_shape(kind: str, params: Sequence[int]) -> tuple[int, int, int]:
    """The shape (m, s, t) of the member of family `kind` with `params`."""
    if kind not in FAMILIES:
        raise ValueError(f"unknown family kind: {kind!r}")
    admits, message, shape = FAMILIES[kind]
    arity = shape.__code__.co_argcount
    if len(params) != arity:
        raise ValueError(f"family {kind!r} takes {arity} parameter(s)")
    if not admits(*params):
        raise ValueError(message.format(*params))
    return shape(*params)


def crown(n: int, weights: Sequence[int]) -> WeightedOrientedGraph:
    """Crown graph on x1..xn, y1..yn: every edge (xi, yj) with i != j."""
    return _xy_graph(*_family_shape("crown", (n,)), weights)


def unbalanced_crown(s: int, t: int, weights: Sequence[int]) -> WeightedOrientedGraph:
    """Unbalanced crown on x1..xs, y1..yt with 1 < t < s: edges (xi, yj), i != j."""
    return _xy_graph(*_family_shape("unbalanced", (s, t)), weights)


def generalized_crown(m: int, s: int, t: int, weights: Sequence[int]) -> WeightedOrientedGraph:
    """Generalized crown on x1..xs, y1..yt: x1..xm miss their partner yi,
    while x_{m+1}..xs are joined to every yj.  Requires 1 < m < s and m < t."""
    return _xy_graph(*_family_shape("generalized", (m, s, t)), weights)


def complete_bipartite(s: int, t: int, weights: Sequence[int]) -> WeightedOrientedGraph:
    """Complete bipartite graph on x1..xs, y1..yt, all edges oriented x -> y."""
    return _xy_graph(*_family_shape("complete_bipartite", (s, t)), weights)


def induced_subgraph(
    graph: WeightedOrientedGraph, subset: Iterable[str]
) -> WeightedOrientedGraph:
    """Subgraph on the given vertices, keeping edges with both ends inside.

    The ambient variable set is retained so that multidegrees of the
    subgraph's edge ideal remain comparable with the parent's.
    """
    keep = set(subset)
    unknown = keep - set(graph.vertices.names)
    if unknown:
        raise ValueError(f"vertices not in the graph: {sorted(unknown)}")
    edges = {(a, b) for a, b in graph.edges if a in keep and b in keep}
    return WeightedOrientedGraph(graph.vertices, frozenset(edges), dict(graph.weights))


def theta(graph: WeightedOrientedGraph) -> Multidegree:
    """lcm of the minimal generators of the edge ideal."""
    ideal = edge_ideal(graph)
    if ideal.is_zero():
        raise ValueError("no edges: theta is undefined for an edgeless graph")
    return lcm_of(ideal.generators)
