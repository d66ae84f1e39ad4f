import random

import pytest

from crownbetti import (
    FieldSpec,
    VariableSet,
    betti_product_disjoint,
    betti_sum_disjoint,
    check_splitting_lemma_hypotheses,
    crown,
    crown_splitting,
    crowncolon_components,
    edge_ideal,
    ideal_product,
    ideal_sum,
    is_dominant,
    mapping_cone_upper_bound,
    minimalize,
    multigraded_betti,
    scale,
    taylor_betti_dominant,
    total_betti_closed_form,
    unbalanced_crown,
    verify_betti_splitting,
    xy_variables,
)
from crownbetti.multidegree import binomial, lcm_of


def variables_ideal(labels, *gen_dicts):
    vs = VariableSet(tuple(labels))
    return vs, minimalize(vs, [vs.from_dict(d) for d in gen_dicts])


def dominant_ideal_a(s, weights):
    """A = (y1^w1, ..., y_{s-1}^w_{s-1}, x1*ys^ws, ..., x_{s-1}*ys^ws)."""
    vs = xy_variables(s)
    gens = [vs.variable(f"y{j}", weights[j - 1]) for j in range(1, s)] + [
        vs.variable(f"x{i}") * vs.variable(f"y{s}", weights[s - 1])
        for i in range(1, s)
    ]
    return minimalize(vs, gens)


class TestTaylorDominant:
    def test_variable_ideal(self):
        vs, ideal = variables_ideal("abc", {"a": 1}, {"b": 1}, {"c": 1})
        table = taylor_betti_dominant(ideal)
        # one entry per nonempty squarefree monomial, at index size-1
        assert table.total() == {0: 3, 1: 3, 2: 1}
        top = vs.from_dict({"a": 1, "b": 1, "c": 1})
        assert table.entry(2, top) == 1
        assert table == multigraded_betti(ideal)

    @pytest.mark.parametrize("s,w", [(3, (1, 1, 1)), (3, (2, 1, 3)), (4, (1, 2, 1, 2))])
    def test_dominant_ideal_a(self, s, w):
        ideal = dominant_ideal_a(s, w)
        assert is_dominant(ideal)
        table = taylor_betti_dominant(ideal)
        m = len(ideal.generators)
        assert m == 2 * s - 2
        assert table.pdim() == m - 1
        top = lcm_of(ideal.generators)
        assert table.entry(m - 1, top) == 1
        assert table.total()[m - 1] == 1
        assert table == multigraded_betti(ideal)

    def test_single_generator(self):
        vs, ideal = variables_ideal("ab", {"a": 2, "b": 1})
        table = taylor_betti_dominant(ideal)
        assert table.entries == {(0, vs.from_dict({"a": 2, "b": 1})): 1}

    def test_non_dominant_rejected(self):
        vs, triangle = variables_ideal(
            "xyz", {"x": 1, "y": 1}, {"y": 1, "z": 1}, {"z": 1, "x": 1}
        )
        with pytest.raises(ValueError):
            taylor_betti_dominant(triangle)

    def test_random_dominant_ideals_match_oracle(self):
        rng = random.Random(1711)
        vs = VariableSet(tuple("abcdef"))
        checked = 0
        while checked < 25:
            m = rng.randint(1, 5)
            gens = []
            for i in range(m):
                exps = [rng.randint(0, 2) for _ in range(6)]
                exps[i] = 3 + rng.randint(0, 2)  # generator i owns variable i
                gens.append(vs.monomial(tuple(exps)))
            ideal = minimalize(vs, gens)
            if len(ideal.generators) != m or not is_dominant(ideal):
                continue
            assert taylor_betti_dominant(ideal) == multigraded_betti(ideal)
            checked += 1


class TestVerifyBettiSplitting:
    @pytest.mark.parametrize("w", [(1, 1, 1), (2, 1, 3)])
    def test_crown3_standard_splitting(self, w):
        vs = xy_variables(3)
        whole = edge_ideal(crown(3, w))
        i2 = minimalize(
            vs,
            [
                vs.variable("x1") * vs.variable("y2", w[1]),
                vs.variable("x2") * vs.variable("y1", w[0]),
            ],
        )
        a = minimalize(vs, [vs.variable("y1", w[0]), vs.variable("y2", w[1])])
        b = minimalize(vs, [vs.variable("x1"), vs.variable("x2")])
        j_part = ideal_sum(i2, scale(vs.variable("x3"), a))
        k_part = scale(vs.variable("y3", w[2]), b)
        ok, witness = verify_betti_splitting(whole, j_part, k_part)
        assert ok and witness is None

    def test_degenerate_split(self):
        vs, ideal = variables_ideal("xy", {"x": 2}, {"x": 1, "y": 1})
        ok, witness = verify_betti_splitting(ideal, ideal, minimalize(vs, []))
        assert ok and witness is None

    def test_frozen_non_splitting_counterexample(self):
        # found by seeded fuzzing: I = (y^2, y*z, z^2), J = (y^2, z^2), K = (y*z)
        vs = VariableSet(("x", "y", "z"))
        whole = minimalize(
            vs, [vs.from_dict({"y": 2}), vs.from_dict({"y": 1, "z": 1}), vs.from_dict({"z": 2})]
        )
        j_part = minimalize(vs, [vs.from_dict({"y": 2}), vs.from_dict({"z": 2})])
        k_part = minimalize(vs, [vs.from_dict({"y": 1, "z": 1})])
        ok, witness = verify_betti_splitting(whole, j_part, k_part)
        assert not ok
        assert witness == (1, vs.from_dict({"y": 2, "z": 2}))

    def test_bad_partition_rejected(self):
        vs, ideal = variables_ideal("xy", {"x": 2}, {"y": 2})
        with pytest.raises(ValueError):
            verify_betti_splitting(ideal, ideal, ideal)


class TestSplittingLemmaHypotheses:
    @pytest.mark.parametrize("s", [3, 4])
    def test_crown_triple(self, s):
        # I = I_{s-1}, J = (ys^ws), K = (x1..x_{s-1}) inside the s-pair ring
        w = (2,) + (1,) * (s - 1)
        vs = xy_variables(s)
        sub = minimalize(
            vs,
            [
                vs.variable(f"x{i}") * vs.variable(f"y{j}", w[j - 1])
                for i in range(1, s)
                for j in range(1, s)
                if i != j
            ],
        )
        j_part = minimalize(vs, [vs.variable(f"y{s}", w[s - 1])])
        k_part = minimalize(vs, [vs.variable(f"x{i}") for i in range(1, s)])
        assert check_splitting_lemma_hypotheses(sub, j_part, k_part)

    @pytest.mark.parametrize("s,t", [(3, 2), (4, 2), (4, 3)])
    def test_unbalanced_triple(self, s, t):
        # I = I_t, J = (x_{t+1}..x_s), K = (y1^w1..yt^wt)
        w = tuple(range(1, t + 1))
        graph = unbalanced_crown(s, t, w)
        vs = graph.vertices
        i_t = minimalize(
            vs,
            [
                vs.variable(f"x{i}") * vs.variable(f"y{j}", w[j - 1])
                for i in range(1, t + 1)
                for j in range(1, t + 1)
                if i != j
            ],
        )
        j_part = minimalize(vs, [vs.variable(f"x{i}") for i in range(t + 1, s + 1)])
        k_part = minimalize(vs, [vs.variable(f"y{j}", w[j - 1]) for j in range(1, t + 1)])
        assert check_splitting_lemma_hypotheses(i_t, j_part, k_part)
        assert edge_ideal(graph) == ideal_sum(i_t, ideal_product(j_part, k_part))

    @pytest.mark.parametrize("m,s,t", [(2, 3, 3), (2, 4, 3)])
    def test_generalized_triple(self, m, s, t):
        # I = I_{s,m}, J = (y_{m+1}^w..yt^w), K = (x1..xs)
        from crownbetti import generalized_crown

        w = (2,) + (1,) * (t - 1)
        graph = generalized_crown(m, s, t, w)
        vs = graph.vertices
        i_sm = minimalize(
            vs,
            [
                vs.variable(f"x{i}") * vs.variable(f"y{j}", w[j - 1])
                for i in range(1, s + 1)
                for j in range(1, m + 1)
                if i != j
            ],
        )
        j_part = minimalize(
            vs, [vs.variable(f"y{j}", w[j - 1]) for j in range(m + 1, t + 1)]
        )
        k_part = minimalize(vs, [vs.variable(f"x{i}") for i in range(1, s + 1)])
        assert check_splitting_lemma_hypotheses(i_sm, j_part, k_part)
        assert edge_ideal(graph) == ideal_sum(i_sm, ideal_product(j_part, k_part))

    def test_shared_variable_fails(self):
        vs, i_part = variables_ideal("xyz", {"x": 1, "y": 1})
        j_part = minimalize(vs, [vs.from_dict({"y": 1})])
        k_part = minimalize(vs, [vs.from_dict({"x": 1})])
        assert not check_splitting_lemma_hypotheses(i_part, j_part, k_part)


class TestDisjointConvolutions:
    def test_product_of_principal_tables(self):
        vs = VariableSet(("x", "y"))
        tx = multigraded_betti(minimalize(vs, [vs.from_dict({"x": 2})]))
        ty = multigraded_betti(minimalize(vs, [vs.from_dict({"y": 1})]))
        table = betti_product_disjoint(tx, ty)
        assert table.entries == {(0, vs.from_dict({"x": 2, "y": 1})): 1}

    def test_product_matches_oracle(self):
        vs = VariableSet(("x1", "x2", "y1"))
        a = minimalize(vs, [vs.variable("x1"), vs.variable("x2")])
        b = minimalize(vs, [vs.variable("y1")])
        expected = multigraded_betti(ideal_product(a, b))
        got = betti_product_disjoint(multigraded_betti(a), multigraded_betti(b))
        assert got == expected
        assert got.total() == {0: 2, 1: 1}

    def test_sum_of_principal_tables_is_complete_intersection(self):
        vs = VariableSet(("x", "y"))
        tx = multigraded_betti(minimalize(vs, [vs.from_dict({"x": 1})]))
        ty = multigraded_betti(minimalize(vs, [vs.from_dict({"y": 1})]))
        table = betti_sum_disjoint(tx, ty)
        assert table.entries == {
            (0, vs.from_dict({"x": 1})): 1,
            (0, vs.from_dict({"y": 1})): 1,
            (1, vs.from_dict({"x": 1, "y": 1})): 1,
        }

    @pytest.mark.parametrize("s,w", [(3, (1, 1, 1)), (4, (2, 1, 1, 3))])
    def test_sum_matches_oracle_on_crown_pieces(self, s, w):
        # B = (I_{s-1} + ys^ws*(x1..x_{s-1})) + (xs): support-disjoint sum
        vs = xy_variables(s)
        inner = minimalize(
            vs,
            [
                vs.variable(f"x{i}") * vs.variable(f"y{j}", w[j - 1])
                for i in range(1, s)
                for j in range(1, s)
                if i != j
            ]
            + [
                vs.variable(f"y{s}", w[s - 1]) * vs.variable(f"x{i}")
                for i in range(1, s)
            ],
        )
        outer = minimalize(vs, [vs.variable(f"x{s}")])
        expected = multigraded_betti(ideal_sum(inner, outer))
        got = betti_sum_disjoint(multigraded_betti(inner), multigraded_betti(outer))
        assert got == expected

    def test_pdim_addition_for_products(self):
        vs = xy_variables(3)
        a = minimalize(vs, [vs.variable("x1"), vs.variable("x2")])
        b = minimalize(vs, [vs.variable("y1", 2), vs.variable("y2")])
        table = betti_product_disjoint(multigraded_betti(a), multigraded_betti(b))
        assert table.pdim() == 1 + 1  # pdim(J_{s,t}) = s + t - 2 at s = t = 2

    def test_overlapping_supports_rejected(self):
        vs = VariableSet(("x", "y"))
        tx = multigraded_betti(minimalize(vs, [vs.from_dict({"x": 1})]))
        with pytest.raises(ValueError):
            betti_product_disjoint(tx, tx)
        with pytest.raises(ValueError):
            betti_sum_disjoint(tx, tx)

    def test_random_disjoint_pairs_match_oracle(self):
        rng = random.Random(2024)
        vs = VariableSet(("a", "b", "c", "d"))
        for _ in range(10):
            left = minimalize(
                vs,
                [
                    vs.from_dict({"a": rng.randint(0, 2), "b": rng.randint(0, 2)})
                    for _ in range(rng.randint(1, 3))
                ],
            )
            right = minimalize(
                vs,
                [
                    vs.from_dict({"c": rng.randint(0, 2), "d": rng.randint(0, 2)})
                    for _ in range(rng.randint(1, 3))
                ],
            )
            if left.is_zero() or right.is_zero() or left.is_unit() or right.is_unit():
                continue
            tl, tr = multigraded_betti(left), multigraded_betti(right)
            assert betti_product_disjoint(tl, tr) == multigraded_betti(ideal_product(left, right))
            assert betti_sum_disjoint(tl, tr) == multigraded_betti(ideal_sum(left, right))


class TestMappingConeBound:
    def test_base_case(self):
        assert mapping_cone_upper_bound(2, 0) == 2
        assert mapping_cone_upper_bound(2, 1) == 1
        assert mapping_cone_upper_bound(2, 2) == 0

    def test_dominates_closed_form(self):
        for n in range(2, 9):
            for i in range(0, 2 * n - 2):
                assert mapping_cone_upper_bound(n, i) >= total_betti_closed_form(n, i)

    def test_generator_count_lower_bound(self):
        for n in range(2, 9):
            assert mapping_cone_upper_bound(n, 0) >= n * (n - 1)
            assert total_betti_closed_form(n, 0) == n * (n - 1)

    def test_dominates_oracle_totals(self):
        for n, w in [(3, (1, 1, 1)), (3, (2, 1, 3)), (4, (1, 2, 3, 4))]:
            totals = multigraded_betti(edge_ideal(crown(n, w))).total_sequence()
            for i, b in enumerate(totals):
                assert mapping_cone_upper_bound(n, i) >= b

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            mapping_cone_upper_bound(1, 0)


class TestCrownSplitting:
    @pytest.mark.parametrize("n,w", [(2, (1, 3)), (3, (1, 1, 1)), (4, (1, 2, 1, 3))])
    def test_parts_partition_the_generators(self, n, w):
        j_part, k_part = crown_splitting(n, w)
        gens_j, gens_k = set(j_part.generators), set(k_part.generators)
        assert not gens_j & gens_k
        assert gens_j | gens_k == set(edge_ideal(crown(n, w)).generators)

    def test_k_part_is_scaled_x_ideal(self):
        vs = xy_variables(3)
        _, k_part = crown_splitting(3, (1, 1, 2))
        expected = scale(vs.variable("y3", 2), minimalize(vs, [vs.variable("x1"), vs.variable("x2")]))
        assert k_part == expected


class TestCrownColon:
    def test_p1_closed_form(self):
        out = crowncolon_components(3, (1, 1, 1), 1)
        vs = xy_variables(3)
        assert out.p == minimalize(vs, [vs.variable("x2"), vs.variable("y2")])

    def test_p2_closed_form_with_weights(self):
        out = crowncolon_components(3, (1, 2, 1), 2)
        vs = xy_variables(3)
        assert out.p == minimalize(vs, [vs.variable("x1"), vs.variable("y1")])

    def test_c_is_final_q(self):
        w = (2, 1, 2)
        out = crowncolon_components(3, w, 1)
        vs = xy_variables(3)
        expected_c = minimalize(
            vs,
            [
                vs.variable("x1") * vs.variable("y2", w[1]),
                vs.variable("x2") * vs.variable("y1", w[0]),
                vs.variable("x3") * vs.variable("x1") * vs.variable("y1", w[0]),
                vs.variable("x3") * vs.variable("x2") * vs.variable("y2", w[1]),
            ],
        )
        assert out.c == expected_c

    @pytest.mark.parametrize("n,s", [(3, 0), (3, 3), (2, 2)])
    def test_out_of_range_rejected(self, n, s):
        with pytest.raises(ValueError):
            crowncolon_components(n, (1,) * n, s)
