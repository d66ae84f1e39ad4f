import itertools
import random
import time
from collections import defaultdict

import pytest

from crownbetti import (
    binomial,
    complete_bipartite,
    crown,
    crown_splitting,
    edge_ideal,
    enumerate_M,
    enumerate_N,
    family_top_betti,
    generalized_crown,
    graded_betti_formula,
    induced_subgraph,
    mapping_cone_upper_bound,
    multigraded_betti,
    multigraded_betti_formula,
    regularity_formula,
    shape_betti_formula,
    shape_entry_count,
    shape_graded_formula,
    theta,
    total_betti_closed_form,
    unbalanced_crown,
    xy_variables,
)
from crownbetti.formulas import _entry_states, _formula_rows
from crownbetti.graphs import _xy_graph
from crownbetti.render import _rows


def monomials(n, exponents):
    """The enumerated exponent tuples of a crown as monomials over x1..xn, y1..yn."""
    return map(xy_variables(n).monomial, exponents)


def strictly_increasing(items):
    return all(a < b for a, b in zip(items, items[1:]))


class TestTotalClosedForm:
    def test_generator_count_at_index_zero(self):
        assert total_betti_closed_form(3, 0) == 6

    def test_top_value(self):
        assert total_betti_closed_form(3, 3) == 2  # n - 1 at i = 2n - 3

    def test_crown3_sequence_and_alternating_sum(self):
        seq = [total_betti_closed_form(3, i) for i in range(4)]
        assert seq == [6, 9, 6, 2]
        assert 1 + sum((-1) ** (i + 1) * b for i, b in enumerate(seq)) == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_vanishes_beyond_pdim(self, n):
        for i in range(2 * n - 2, 2 * n + 4):
            assert total_betti_closed_form(n, i) == 0
        assert total_betti_closed_form(n, 2 * n - 3) == n - 1


class TestEnumerateN:
    def test_cardinality_formula(self):
        n, i, k = 4, 3, 2
        expected = 2 ** (i + 3 - 2 * k) * binomial(n, k) * binomial(n - k, i + 3 - 2 * k)
        assert len(enumerate_N(n, n, n, (1,) * n, i, k)) == expected == 24

    def test_pairs_only_case(self):
        # (n, i, k) = (3, 1, 2): pure pair selections x_a x_b y_a^wa y_b^wb
        w = (2, 1, 3)
        vs = xy_variables(3)
        expected = {
            vs.from_dict({f"x{a}": 1, f"x{b}": 1, f"y{a}": w[a - 1], f"y{b}": w[b - 1]})
            for a, b in itertools.combinations((1, 2, 3), 2)
        }
        assert enumerate_N(3, 3, 3, w, 1, 2) == sorted(a.exponents for a in expected)

    def test_empty_when_too_many_pairs(self):
        assert enumerate_N(4, 4, 4, (1, 1, 1, 1), 0, 2) == []

    def test_matches_oracle_support_of_beta1(self):
        w = (2, 1, 3)
        table = multigraded_betti(edge_ideal(crown(3, w)))
        from_n = enumerate_N(3, 3, 3, w, 1, 2)
        from_m = enumerate_M(3, 3, 3, w, 1)
        assert {a.exponents for (i, a) in table.entries if i == 1} == {*from_n, *from_m}

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cardinalities_across_range(self, n):
        w = tuple(range(1, n + 1))
        for i in range(0, 2 * n - 2):
            for k in range(2, n + 1):
                j = i + 3 - 2 * k
                expected = 0 if j < 0 else 2**j * binomial(n, k) * binomial(n - k, j)
                assert len(enumerate_N(n, n, n, w, i, k)) == expected

    def test_theta_agrees_with_graph_route(self):
        # direct selection products equal theta of the induced subgraph
        n, w = 4, (1, 2, 3, 4)
        graph = crown(n, w)
        for i in range(0, 2 * n - 2):
            for k in range(2, n + 1):
                for a in monomials(n, enumerate_N(n, n, n, w, i, k)):
                    sub = induced_subgraph(graph, a.support())
                    assert theta(sub) == a


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumerations_match_induced_subgraph_thetas(n):
    # theta of every contributing induced subgraph, by (pair count, size)
    w = (2, 1, 3, 1, 2)[:n]
    graph = crown(n, w)
    thetas = defaultdict(set)
    for size in range(2 * n + 1):
        for subset in itertools.combinations(graph.vertices.names, size):
            sub = induced_subgraph(graph, subset)
            pairs = sum(f"y{v[1:]}" in subset for v in subset if v[0] == "x")
            if sub.edges and pairs != 1:
                thetas[pairs, size].add(theta(sub))
    for i in range(-1, 2 * n):
        assert enumerate_M(n, n, n, w, i) == sorted(a.exponents for a in thetas[0, i + 2])
        for k in range(2, n + 1):
            assert enumerate_N(n, n, n, w, i, k) == sorted(a.exponents for a in thetas[k, i + 3])


@pytest.mark.parametrize("m, s, t", [(3, 3, 3), (2, 4, 3), (0, 3, 4), (5, 5, 5)])
def test_enumerations_are_strictly_increasing(m, s, t):
    # the listing merges these runs, so each must be sorted and repeat nothing
    weights = tuple(range(1, t + 1))
    for i in range(-1, s + t):
        assert strictly_increasing(enumerate_M(m, s, t, weights, i))
        for k in range(2, m + 1):
            assert strictly_increasing(enumerate_N(m, s, t, weights, i, k))


class TestEnumerateM:
    def test_index_zero_gives_generators(self):
        w = (2, 1, 3)
        generators = edge_ideal(crown(3, w)).generators
        assert enumerate_M(3, 3, 3, w, 0) == sorted(g.exponents for g in generators)

    def test_one_sided_selections_excluded(self):
        for a in monomials(3, enumerate_M(3, 3, 3, (1, 1, 1), 1)):
            labels = {v[0] for v in a.support()}
            assert labels == {"x", "y"}

    def test_crown2_base(self):
        w = (3, 4)
        assert len(enumerate_M(2, 2, 2, w, 0)) == 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_cardinality_formula(self, n):
        w = (1,) * n
        for i in range(0, 2 * n - 2):
            assert len(enumerate_M(n, n, n, w, i)) == (2 ** (i + 2) - 2) * binomial(n, i + 2)

    def test_theta_agrees_with_graph_route(self):
        n, w = 4, (2, 1, 1, 3)
        graph = crown(n, w)
        for i in range(0, 2 * n - 2):
            for a in monomials(n, enumerate_M(n, n, n, w, i)):
                assert theta(induced_subgraph(graph, a.support())) == a


class TestPartitionConsistency:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_counts_add_to_closed_form(self, n):
        w = tuple(range(1, n + 1))
        for i in range(0, 2 * n - 2):
            total = sum(
                (k - 1) * len(enumerate_N(n, n, n, w, i, k)) for k in range(2, n + 1)
            )
            total += len(enumerate_M(n, n, n, w, i))
            assert total == total_betti_closed_form(n, i)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_selection_families_are_disjoint(self, n):
        w = (2,) + (1,) * (n - 1)
        for i in range(0, 2 * n - 2):
            sets = [set(enumerate_N(n, n, n, w, i, k)) for k in range(2, n + 1)]
            sets.append(set(enumerate_M(n, n, n, w, i)))
            for a, b in itertools.combinations(sets, 2):
                assert not (a & b)

    def test_degree_bookkeeping(self):
        n, w = 4, (1, 2, 3, 4)
        for i in range(0, 2 * n - 2):
            for k in range(2, n + 1):
                for a in monomials(n, enumerate_N(n, n, n, w, i, k)):
                    n_x = sum(1 for v in a.support() if v.startswith("x"))
                    n_y = sum(1 for v in a.support() if v.startswith("y"))
                    y_weight = sum(
                        w[int(v[1:]) - 1] for v in a.support() if v.startswith("y")
                    )
                    assert n_x + n_y == i + 3
                    assert min(n_x, n_y) >= k
                    assert a.degree() == n_x + y_weight
            for a in monomials(n, enumerate_M(n, n, n, w, i)):
                assert len(a.support()) == i + 2

    def test_weight_one_degrees(self):
        n = 4
        w = (1,) * n
        for i in range(0, 2 * n - 2):
            for k in range(2, n + 1):
                assert all(sum(e) == i + 3 for e in enumerate_N(n, n, n, w, i, k))
            assert all(sum(e) == i + 2 for e in enumerate_M(n, n, n, w, i))


class TestMultigradedFormula:
    def test_crown2_table(self):
        w = (3, 2)
        vs = xy_variables(2)
        table = multigraded_betti_formula(2, w)
        assert table.entries == {
            (0, vs.from_dict({"x1": 1, "y2": w[1]})): 1,
            (0, vs.from_dict({"x2": 1, "y1": w[0]})): 1,
            (1, vs.from_dict({"x1": 1, "x2": 1, "y1": w[0], "y2": w[1]})): 1,
        }

    @pytest.mark.parametrize("w", [(1, 1, 1), (1, 2, 1), (3, 1, 2)])
    def test_matches_oracle_crown3(self, w):
        assert multigraded_betti_formula(3, w) == multigraded_betti(edge_ideal(crown(3, w)))

    def test_top_entry_crown4(self):
        w = (1, 2, 3, 4)
        table = multigraded_betti_formula(4, w)
        assert table.entry(5, theta(crown(4, w))) == 3  # n - 1 at i = 2n - 3
        assert table.pdim() == 5

    @pytest.mark.parametrize("n", [3, 4])
    def test_weight_independent_totals(self, n):
        vectors = [(1,) * n, (2,) + (1,) * (n - 1), tuple(range(1, n + 1))]
        totals = {tuple(multigraded_betti_formula(n, w).total_sequence()) for w in vectors}
        assert len(totals) == 1
        (seq,) = totals
        assert list(seq) == [total_betti_closed_form(n, i) for i in range(len(seq))]


class TestGradedFormula:
    def test_weight_one_j_is_i_plus_2(self):
        n, i = 4, 1
        assert graded_betti_formula(n, (1,) * n, i, i + 2) == (2 ** (i + 2) - 2) * binomial(n, i + 2) == 24

    def test_weight_one_support(self):
        n = 4
        w = (1,) * n
        for i in range(0, 2 * n - 2):
            for j in range(0, 3 * n):
                value = graded_betti_formula(n, w, i, j)
                if j not in (i + 2, i + 3):
                    assert value == 0

    def test_degree_sum_is_generator_count(self):
        n, w = 3, (2, 1, 1)
        assert sum(graded_betti_formula(n, w, 0, j) for j in range(0, 20)) == 6

    @pytest.mark.parametrize("w", [(1,) * 30, tuple(1 + r % 3 for r in range(30))])
    def test_counted_at_n30(self, w):
        # far past enumeration: totals, pdim and reg of the counted numbers
        n = 30
        graded = shape_graded_formula(n, n, n, w)
        totals = defaultdict(int)
        for (i, _), c in graded.items():
            totals[i] += c
        assert sorted(totals) == list(range(2 * n - 2))
        for i, b in totals.items():
            assert b == total_betti_closed_form(n, i) <= mapping_cone_upper_bound(n, i)
        assert max(j - i for i, j in graded) == regularity_formula(n, w)


@pytest.mark.parametrize(
    "shape", [(2, 2, 2), (3, 3, 3), (5, 5, 5), (2, 4, 3), (0, 3, 4), (3, 3, 4), (1, 2, 2)]
)
def test_entry_count_is_table_size(shape):
    weights = tuple(range(1, shape[2] + 1))
    assert shape_entry_count(*shape, weights) == len(shape_betti_formula(*shape, weights).entries)


def test_closed_entry_count_is_the_counted_one():
    # the closed form against the selections counted by the DP, at random
    # weights, on every admissible shape (m, s, t) with s + t <= 12
    rng = random.Random(7)
    shapes = [
        (m, s, t)
        for s in range(1, 12)
        for t in range(1, 13 - s)
        for m in range(min(s, t) + 1)
        if (m, s, t) != (1, 1, 1)
    ]
    assert len(shapes) == 226
    for m, s, t in shapes:
        weights = tuple(rng.randint(1, 4) for _ in range(t))
        counted = sum(count for _, _, _, count in _entry_states(m, s, t, weights))
        assert shape_entry_count(m, s, t, weights) == counted, (m, s, t, weights)


def test_listing_is_the_table_and_adds_up_to_the_counted_numbers():
    # the one listing walk, which shape_betti_formula and the CLI's listings
    # read, on every admissible shape (m, s, t) with s + t <= 9, m = 0 too:
    # one row per selection, strictly increasing by (i, exponents), the
    # table's sorted rows, and, summed by degree, the graded numbers the CLI
    # counts beside it
    rng = random.Random(11)
    shapes = [
        (m, s, t)
        for s in range(1, 9)
        for t in range(1, 10 - s)
        for m in range(min(s, t) + 1)
        if (m, s, t) != (1, 1, 1)
    ]
    assert len(shapes) == 105 and (0, 4, 5) in shapes
    for m, s, t in shapes:
        weights = tuple(rng.randint(1, 4) for _ in range(t))
        listed = list(_formula_rows(m, s, t, weights))
        assert len(listed) == shape_entry_count(m, s, t, weights)
        assert strictly_increasing([(i, e) for i, e, _ in listed]), (m, s, t)
        assert listed == _rows(shape_betti_formula(m, s, t, weights)), (m, s, t)
        graded = defaultdict(int)
        for i, e, c in listed:
            graded[i, sum(e)] += c
        assert graded == shape_graded_formula(m, s, t, weights), (m, s, t)


def test_listing_checks_the_shape():
    with pytest.raises(ValueError, match="expected 3 weights"):
        list(_formula_rows(3, 3, 3, (1, 1)))
    with pytest.raises(ValueError, match="no edges"):
        list(_formula_rows(1, 1, 1, (1,)))


def test_closed_entry_count_checks_the_shape():
    with pytest.raises(ValueError, match="expected 3 weights"):
        shape_entry_count(3, 3, 3, (1, 1))
    with pytest.raises(ValueError, match="no edges"):
        shape_entry_count(1, 1, 1, (1,))


def test_entry_count_keeps_n10_under_the_listing_cap():
    from crownbetti.cli import MAX_LISTED_ENTRIES

    assert shape_entry_count(10, 10, 10, (1,) * 10) == 849_699 <= MAX_LISTED_ENTRIES
    assert shape_entry_count(11, 11, 11, tuple(range(1, 12))) == 3_540_670 > MAX_LISTED_ENTRIES


class TestCrownArguments:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: multigraded_betti_formula(1, (1,)),
            lambda: multigraded_betti_formula(3, (1, 1)),
            lambda: multigraded_betti_formula(3, (0, 1, 1)),
            lambda: multigraded_betti_formula(3, (1, 2.5, 1)),
            lambda: regularity_formula(3, (1, 2)),
            lambda: regularity_formula(3, (0, 1, 1)),
            lambda: graded_betti_formula(3, (1, 2), 1, 3),
            lambda: graded_betti_formula(1, (1,), 0, 2),
            lambda: enumerate_N(3, 3, 3, (1,), 1, 2),
            lambda: enumerate_N(4, 4, 4, (1,), 0, 2),  # no selection, still checked
            lambda: enumerate_M(2, 2, 2, (1, 1, 5), 0),
            lambda: enumerate_M(3, 3, 3, (1, True, 1), 0),
            lambda: enumerate_M(2, 2, 2, (1, 0), 0),
            lambda: enumerate_M(0, 0, 2, (1, 1), 0),
            lambda: enumerate_M(0, 2, 0, (), 0),
            lambda: enumerate_M(3, 2, 3, (1, 1, 1), 0),
            lambda: enumerate_M(-1, 2, 2, (1, 1), 0),
            lambda: enumerate_M(1, 1, 1, (1,), 0),
            lambda: shape_betti_formula(1, 1, 1, (1,)),
            lambda: shape_betti_formula(0, 1, 0, ()),
            lambda: shape_betti_formula(0, 2, 3, (1, 2.0, 1)),
            lambda: shape_graded_formula(1, 1, 1, (1,)),
            lambda: shape_graded_formula(3, 2, 3, (1, 1, 1)),
            lambda: shape_graded_formula(0, 2, 3, (1, 0, 1)),
        ],
    )
    def test_invalid_arguments_rejected(self, call):
        with pytest.raises(ValueError):
            call()

    @pytest.mark.parametrize("n", [1, 0, -1])
    @pytest.mark.parametrize(
        "call",
        [
            crown,
            multigraded_betti_formula,
            lambda n, w: graded_betti_formula(n, w, 0, 2),
            regularity_formula,
            lambda n, w: total_betti_closed_form(n, 0),
            crown_splitting,
            lambda n, w: mapping_cone_upper_bound(n, 0),
        ],
        ids=[
            "crown", "multigraded", "graded", "regularity", "total", "splitting", "bound",
        ],
    )
    def test_crown_rule_has_one_message(self, call, n):
        # every crown entry point refuses a bad n through the one crown rule
        with pytest.raises(ValueError) as exc:
            call(n, (1,) * max(n, 0))
        assert str(exc.value) == f"crown graph needs n >= 2, got {n}"


class TestRegularityFormula:
    @pytest.mark.parametrize(
        "n,w,expected", [(3, (1, 1, 1), 3), (3, (2, 2, 2), 6), (4, (1, 1, 1, 1), 3)]
    )
    def test_values(self, n, w, expected):
        assert regularity_formula(n, w) == expected == sum(w) - n + 3

    def test_matches_oracle(self):
        w = (1, 2, 3)
        table = multigraded_betti(edge_ideal(crown(3, w)))
        assert table.regularity() == regularity_formula(3, w)


class TestFamilyTopBetti:
    def test_crown(self):
        w = (1, 1, 1)
        top = family_top_betti("crown", (3,), w)
        assert (top.pdim, top.top_value) == (3, 2)
        assert top.top_multidegree == theta(crown(3, w))

    def test_unbalanced(self):
        w = (2, 1)
        top = family_top_betti("unbalanced", (3, 2), w)
        assert (top.pdim, top.top_value) == (2, 1)
        assert top.top_multidegree == theta(unbalanced_crown(3, 2, w))

    def test_generalized_value_is_m_minus_1(self):
        top = family_top_betti("generalized", (2, 3, 3), (1, 1, 1))
        assert (top.pdim, top.top_value) == (3, 1)

    def test_complete_bipartite(self):
        w = (3, 1)
        top = family_top_betti("complete_bipartite", (2, 2), w)
        assert (top.pdim, top.top_value) == (2, 1)
        assert top.top_multidegree == theta(complete_bipartite(2, 2, w))

    def test_constraint_violations_rejected(self):
        with pytest.raises(ValueError):
            family_top_betti("crown", (1,), (1,))
        with pytest.raises(ValueError):
            family_top_betti("unbalanced", (2, 2), (1, 1))
        with pytest.raises(ValueError):
            family_top_betti("bogus", (2,), (1, 1))
        with pytest.raises(ValueError):
            family_top_betti("unbalanced", (3,), (1, 1, 1))

    def test_builds_no_graph(self, monkeypatch):
        import crownbetti.graphs as graphs_module

        cases = [
            ("crown", (3,), (2, 1, 3), crown),
            ("unbalanced", (4, 3), (1, 2, 1), unbalanced_crown),
            ("generalized", (2, 4, 3), (3, 1, 2), generalized_crown),
            ("complete_bipartite", (2, 3), (1, 4, 1), complete_bipartite),
        ]
        expected = [theta(build(*params, w)) for _, params, w, build in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("family_top_betti built a graph")

        monkeypatch.setattr(graphs_module, "WeightedOrientedGraph", refuse)
        tops = [family_top_betti(kind, params, w) for kind, params, w, _ in cases]
        assert [top.top_multidegree for top in tops] == expected
        assert [(top.pdim, top.top_value) for top in tops] == [(3, 2), (4, 2), (4, 1), (3, 1)]

    def test_large_family_read_off_the_shape(self):
        start = time.perf_counter()
        top = family_top_betti("complete_bipartite", (300, 300), (1,) * 300)
        assert time.perf_counter() - start < 5
        assert (top.pdim, top.top_value) == (598, 1)
        assert top.top_multidegree == xy_variables(300).monomial((1,) * 600)


SHAPES = [
    (m, s, t)
    for s in range(1, 8)
    for t in range(1, 9 - s)
    for m in range(min(s, t) + 1)
    if (m, s, t) != (1, 1, 1)
]


def _subset_rule_entries(m, s, t, w):
    """The shape's table read straight off the induced-subgraph rule: each
    vertex set W with no isolated vertex gives beta_{i,a} at a = theta(G[W]),
    k - 1 at i = |W| - 3 when W holds k >= 2 missing pairs, 1 at
    i = |W| - 2 when it holds none, and nothing when it holds one."""
    graph = _xy_graph(m, s, t, w)
    entries = {}
    for size in range(2, s + t + 1):
        for subset in itertools.combinations(graph.vertices.names, size):
            sub = induced_subgraph(graph, subset)
            if sub.non_isolated() != set(subset):
                continue
            pairs = sum(f"x{r}" in subset and f"y{r}" in subset for r in range(1, m + 1))
            if pairs == 1:
                continue
            key = (size - 3 if pairs else size - 2, theta(sub))
            assert key not in entries
            entries[key] = pairs - 1 if pairs else 1
    return entries


@pytest.mark.parametrize("m,s,t", [(m, s, t) for m, s, t in SHAPES if s + t <= 7])
def test_shape_formula_matches_subset_rule(m, s, t):
    for w in [(1,) * t, tuple(range(t, 0, -1))]:
        assert shape_betti_formula(m, s, t, w).entries == _subset_rule_entries(m, s, t, w)


@pytest.mark.parametrize("m,s,t", SHAPES)
def test_shape_formula_matches_oracle(m, s, t):
    # the induced-subgraph rule, enumerated and counted, on every shape with s + t <= 8
    totals = set()
    for w in [(1,) * t, tuple(range(1, t + 1)), tuple(range(t, 0, -1))]:
        graph = _xy_graph(m, s, t, w)
        table = shape_betti_formula(m, s, t, w)
        assert table == multigraded_betti(edge_ideal(graph))
        assert shape_graded_formula(m, s, t, w) == table.graded()
        for _, a in table.entries:
            assert induced_subgraph(graph, a.support()).non_isolated() == a.support()
        totals.add(tuple(table.total_sequence()))
    assert len(totals) == 1  # weight independence
