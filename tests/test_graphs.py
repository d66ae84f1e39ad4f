import itertools

import pytest

from crownbetti import (
    WeightedOrientedGraph,
    VariableSet,
    complete_bipartite,
    crown,
    edge_ideal,
    generalized_crown,
    induced_subgraph,
    theta,
    unbalanced_crown,
    xy_variables,
)


class TestEdgeIdeal:
    def test_crown2_generators(self):
        w = (3, 5)
        ideal = edge_ideal(crown(2, w))
        vs = xy_variables(2)
        assert set(ideal.generators) == {
            vs.from_dict({"x1": 1, "y2": w[1]}),
            vs.from_dict({"x2": 1, "y1": w[0]}),
        }

    def test_edgeless_graph_gives_zero_ideal(self):
        vs = VariableSet(("a", "b"))
        graph = WeightedOrientedGraph(vs, frozenset(), {})
        assert edge_ideal(graph).is_zero()

    def test_single_weighted_edge(self):
        ideal = edge_ideal(complete_bipartite(1, 1, (3,)))
        (gen,) = ideal.generators
        assert gen == gen.variables.from_dict({"x1": 1, "y1": 3})


class TestFamilies:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 6), (4, 12)])
    def test_crown_edge_count(self, n, count):
        graph = crown(n, (1,) * n)
        assert len(graph.edges) == count == n * (n - 1)
        assert len(edge_ideal(graph).generators) == count

    def test_crown_rejects_small_n(self):
        with pytest.raises(ValueError):
            crown(1, (1,))

    @pytest.mark.parametrize("s,t,count", [(4, 2, 6), (3, 2, 4)])
    def test_unbalanced_edge_count(self, s, t, count):
        assert len(unbalanced_crown(s, t, (1,) * t).edges) == count == s * t - t

    def test_unbalanced_generators_match_definition(self):
        graph = unbalanced_crown(3, 2, (1, 1))
        vs = graph.vertices
        expected = {
            vs.from_dict({f"x{i}": 1, f"y{j}": 1})
            for i in (1, 2, 3)
            for j in (1, 2)
            if i != j
        }
        assert set(edge_ideal(graph).generators) == expected

    def test_unbalanced_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            unbalanced_crown(2, 2, (1, 1))
        with pytest.raises(ValueError):
            unbalanced_crown(3, 1, (1,))

    def test_generalized_edge_count(self):
        graph = generalized_crown(2, 3, 3, (1, 1, 1))
        assert len(graph.edges) == 7

    def test_generalized_generators_match_definition(self):
        graph = generalized_crown(2, 3, 3, (1, 1, 1))
        vs = graph.vertices
        expected = {
            vs.from_dict({f"x{i}": 1, f"y{j}": 1})
            for i, j in itertools.product((1, 2, 3), repeat=2)
            if i != j or i == 3
        }
        assert set(edge_ideal(graph).generators) == expected

    def test_generalized_rejects_degenerate_m(self):
        with pytest.raises(ValueError):
            generalized_crown(3, 4, 3, (1, 1, 1))  # m = t

    def test_complete_bipartite_counts(self):
        assert len(complete_bipartite(2, 2, (1, 1)).edges) == 4
        assert len(edge_ideal(complete_bipartite(1, 1, (4,))).generators) == 1

    def test_complete_bipartite_is_product_of_sides(self):
        from crownbetti import ideal_product, minimalize

        s, t, w = 2, 3, (2, 1, 3)
        graph = complete_bipartite(s, t, w)
        vs = graph.vertices
        a = minimalize(vs, [vs.variable(f"x{i}") for i in range(1, s + 1)])
        b = minimalize(vs, [vs.variable(f"y{j}", w[j - 1]) for j in range(1, t + 1)])
        assert edge_ideal(graph) == ideal_product(a, b)


def reference_family(kind, params, weights):
    """(vertex labels, edges, weights) of a family member from its own edge
    definition, or the ValueError message the constructor should raise."""
    if kind == "crown":
        (n,) = params
        if n < 2:
            return f"crown graph needs n >= 2, got {n}"
        s = t = n
        edges = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    elif kind == "unbalanced":
        s, t = params
        if not (1 < t < s):
            return f"unbalanced crown needs 1 < t < s, got (s, t) = ({s}, {t})"
        edges = {(i, j) for i in range(1, s + 1) for j in range(1, t + 1) if i != j}
    elif kind == "generalized":
        m, s, t = params
        if not (1 < m < s and m < t):
            return f"generalized crown needs 1 < m < s and m < t, got (m, s, t) = ({m}, {s}, {t})"
        edges = {(i, j) for i in range(1, m + 1) for j in range(1, t + 1) if i != j} | {
            (i, j) for i in range(m + 1, s + 1) for j in range(1, t + 1)
        }
    else:
        s, t = params
        if s < 1 or t < 1:
            return f"complete bipartite needs s, t >= 1, got ({s}, {t})"
        edges = {(i, j) for i in range(1, s + 1) for j in range(1, t + 1)}
    if len(weights) != t:
        return f"expected {t} weights, got {len(weights)}"
    xs = tuple(f"x{i}" for i in range(1, s + 1))
    ys = tuple(f"y{j}" for j in range(1, t + 1))
    return (
        xs + ys,
        {(f"x{i}", f"y{j}") for i, j in edges},
        {**{x: 1 for x in xs}, **dict(zip(ys, weights))},
    )


CONSTRUCTORS = {
    "crown": crown,
    "unbalanced": unbalanced_crown,
    "generalized": generalized_crown,
    "complete_bipartite": complete_bipartite,
}


@pytest.mark.parametrize("kind", sorted(CONSTRUCTORS))
def test_constructors_match_reference_definitions(kind):
    constructor = CONSTRUCTORS[kind]
    arity = constructor.__code__.co_argcount - 1
    for params in itertools.product(range(0, 5), repeat=arity):
        for count in {params[-1], params[-1] + 1}:
            weights = tuple(range(2, count + 2))
            expected = reference_family(kind, params, weights)
            if isinstance(expected, str):
                with pytest.raises(ValueError) as info:
                    constructor(*params, weights)
                assert str(info.value) == expected
                continue
            graph = constructor(*params, weights)
            assert (graph.vertices.names, set(graph.edges), graph.weights) == expected


class TestInducedSubgraph:
    def test_full_vertex_set_is_identity(self):
        graph = crown(3, (1, 2, 3))
        assert induced_subgraph(graph, graph.vertices.names).edges == graph.edges

    def test_partner_pair_is_edgeless(self):
        graph = crown(3, (1, 1, 1))
        assert not induced_subgraph(graph, {"x1", "y1"}).edges

    def test_two_pairs_give_smaller_crown(self):
        graph = crown(3, (1, 1, 1))
        sub = induced_subgraph(graph, {"x1", "x2", "y1", "y2"})
        assert sub.edges == {("x1", "y2"), ("x2", "y1")}

    def test_unknown_vertices_rejected(self):
        with pytest.raises(ValueError):
            induced_subgraph(crown(2, (1, 1)), {"x1", "z9"})

    def test_edge_ideal_restricts_to_supported_generators(self):
        graph = crown(3, (2, 1, 3))
        for size in range(7):
            for subset in itertools.combinations(graph.vertices.names, size):
                window = set(subset)
                sub_gens = {
                    g
                    for g in edge_ideal(graph).generators
                    if g.support() <= window
                }
                assert set(edge_ideal(induced_subgraph(graph, window)).generators) == sub_gens

    def test_relabeling_equivariance(self):
        # permuting pair indices commutes with crown + edge_ideal
        n, w = 3, (1, 2, 3)
        perm = (2, 0, 1)  # index i -> perm[i]
        base = edge_ideal(crown(n, w))
        permuted = edge_ideal(crown(n, tuple(w[perm.index(i)] for i in range(n))))
        vs = xy_variables(n)

        def relabel(a):
            powers = {}
            for v, e in zip(vs.names, a.exponents):
                if e:
                    side, idx = v[0], int(v[1:]) - 1
                    powers[f"{side}{perm[idx] + 1}"] = e
            return vs.from_dict(powers)

        assert {relabel(g) for g in base.generators} == set(permuted.generators)


def _renamed_shape(n, weights, subset):
    """(m, s, t, edges, y weights) of the induced subgraph of the crown on
    `subset`, its x and y vertices renamed x1..xs, y1..yt with the m held
    pairs {xr, yr} first."""
    chosen = set(subset)
    sub = induced_subgraph(crown(n, weights), chosen)
    x_idx = sorted(int(v[1:]) for v in chosen if v[0] == "x")
    y_idx = sorted(int(v[1:]) for v in chosen if v[0] == "y")
    pairs = [i for i in x_idx if i in y_idx]
    x_order = pairs + [i for i in x_idx if i not in pairs]
    y_order = pairs + [j for j in y_idx if j not in pairs]
    rename = {f"x{i}": f"x{k}" for k, i in enumerate(x_order, 1)}
    rename |= {f"y{j}": f"y{k}" for k, j in enumerate(y_order, 1)}
    edges = {(rename[a], rename[b]) for a, b in sub.edges}
    return len(pairs), len(x_order), len(y_order), edges, tuple(weights[j - 1] for j in y_order)


class TestClassify:
    """An induced subgraph of the crown is the shape (held pairs, x count,
    y count) once renamed; the classification is read off that shape."""

    def test_full_vertex_set(self):
        w = (1, 2, 1)
        m, s, t, edges, ws = _renamed_shape(3, w, xy_variables(3).names)
        assert (m, s, t) == (3, 3, 3)
        assert edges == set(crown(3, w).edges) and ws == w

    def test_cross_pair_is_complete_bipartite(self):
        w = (1, 2, 1)
        m, s, t, edges, ws = _renamed_shape(3, w, {"x1", "y2"})
        assert (m, s, t) == (0, 1, 1)
        assert edges == set(complete_bipartite(1, 1, (w[1],)).edges) and ws == (w[1],)

    def test_one_pair(self):
        chosen = {"x1", "y1", "x2"}
        m, s, t, edges, _ = _renamed_shape(3, (1, 1, 1), chosen)
        assert (m, s, t) == (1, 2, 1) and edges == {("x2", "y1")}
        # the held pair's x end has no y left to reach, so it is isolated
        sub = induced_subgraph(crown(3, (1, 1, 1)), chosen)
        assert sub.non_isolated() == {"x2", "y1"}


class TestTheta:
    def test_crown2(self):
        w = (3, 2)
        assert theta(crown(2, w)) == xy_variables(2).from_dict(
            {"x1": 1, "x2": 1, "y1": w[0], "y2": w[1]}
        )

    def test_single_edge(self):
        graph = complete_bipartite(1, 1, (4,))
        assert theta(graph) == edge_ideal(graph).generators[0]

    def test_edgeless_rejected(self):
        graph = induced_subgraph(crown(2, (1, 1)), {"x1", "y1"})
        with pytest.raises(ValueError, match="no edges"):
            theta(graph)

    def test_support_is_non_isolated_vertex_set(self):
        graph = crown(3, (1, 2, 1))
        for subset in itertools.combinations(graph.vertices.names, 4):
            sub = induced_subgraph(graph, subset)
            if sub.edges:
                assert theta(sub).support() == sub.non_isolated()


class TestGraphValidation:
    def test_loops_rejected(self):
        vs = VariableSet(("a", "b"))
        with pytest.raises(ValueError, match="loop"):
            WeightedOrientedGraph(vs, frozenset({("a", "a")}), {})

    def test_antiparallel_edges_rejected(self):
        vs = VariableSet(("a", "b"))
        with pytest.raises(ValueError, match="multiple edges"):
            WeightedOrientedGraph(vs, frozenset({("a", "b"), ("b", "a")}), {})

    def test_nonpositive_weight_rejected(self):
        vs = VariableSet(("a", "b"))
        with pytest.raises(ValueError, match="positive"):
            WeightedOrientedGraph(vs, frozenset({("a", "b")}), {"b": 0})
