import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from crownbetti import (
    MonomialIdeal,
    Multidegree,
    VariableSet,
    colon_by_monomial,
    complete_bipartite,
    contains,
    crown,
    divides,
    edge_ideal,
    ideal_intersect,
    ideal_product,
    ideal_sum,
    is_dominant,
    lcm_lattice,
    lcm_of,
    minimalize,
    multigraded_betti,
    multigraded_betti_formula,
    scale,
    xy_variables,
)

V = VariableSet(("x", "y"))


def m(x, y):
    return V.monomial((x, y))


mono_sets = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda e: V.monomial(e)),
    min_size=0,
    max_size=6,
).map(lambda ms: [a for a in ms if not a.is_one()])


class TestMinimalize:
    def test_strict_divisors_removed(self):
        ideal = minimalize(V, [m(2, 0), m(2, 1), m(1, 1)])
        assert set(ideal.generators) == {m(2, 0), m(1, 1)}

    def test_deduplication(self):
        assert len(minimalize(V, [m(1, 0), m(1, 0)]).generators) == 1

    def test_empty_is_zero_ideal(self):
        assert minimalize(V, []).is_zero()

    @given(mono_sets)
    def test_idempotent(self, ms):
        once = minimalize(V, ms)
        assert minimalize(V, once.generators) == once

    @given(mono_sets)
    def test_generators_still_contained(self, ms):
        ideal = minimalize(V, ms)
        for a in ms:
            assert contains(ideal, a)

    @given(st.lists(st.tuples(*[st.integers(0, 2)] * 4), max_size=8))
    def test_matches_naive_antichain(self, exps):
        # the unit ideal included: 1 divides every monomial
        v4 = VariableSet(("a", "b", "c", "d"))
        ms = {v4.monomial(e) for e in exps}
        naive = {a for a in ms if not any(b != a and divides(b, a) for b in ms)}
        assert set(minimalize(v4, ms).generators) == naive

    @pytest.mark.parametrize("bad", [1.5, True, Fraction(1), Fraction(3, 2)])
    def test_non_integer_exponent_rejected(self, bad):
        # a float built (y, x^1.5) and Betti entries at x^1.5; a bool was
        # written to JSON as true
        generators = [Multidegree(V, (bad, 0)), m(0, 1)]
        with pytest.raises(ValueError, match="non-integer exponent"):
            minimalize(V, generators)
        with pytest.raises(ValueError, match="non-integer exponent"):
            MonomialIdeal(V, tuple(generators))

    def test_complete_bipartite_40_is_fast(self):
        # every edge generator is minimal; comparing all pairs took seconds
        start = time.perf_counter()
        ideal = edge_ideal(complete_bipartite(40, 40, (1,) * 40))
        assert time.perf_counter() - start < 2
        assert len(ideal.generators) == 1600


class TestContains:
    def test_examples(self):
        ideal = minimalize(V, [m(2, 0), m(1, 1)])
        assert contains(ideal, m(2, 1))
        assert not contains(ideal, m(0, 3))

    def test_zero_ideal_contains_nothing(self):
        assert not contains(minimalize(V, []), m(5, 5))


class TestColon:
    def test_by_unit_is_identity(self):
        ideal = minimalize(V, [m(2, 0), m(1, 1)])
        assert colon_by_monomial(ideal, m(0, 0)) == ideal

    def test_componentwise(self):
        ideal = minimalize(V, [m(2, 0), m(1, 1)])
        assert colon_by_monomial(ideal, m(1, 0)) == minimalize(V, [m(1, 0), m(0, 1)])

    def test_crown_colon_closed_form(self):
        # Q_0 = I_2 inside the 3-pair ring; Q_0 : x3*x1*y1^w1 = (x2, y2^w2)
        w = (2, 3, 1)
        vs = xy_variables(3)
        i2 = minimalize(
            vs,
            [
                vs.variable("x1") * vs.variable("y2", w[1]),
                vs.variable("x2") * vs.variable("y1", w[0]),
            ],
        )
        pivot = vs.variable("x3") * vs.variable("x1") * vs.variable("y1", w[0])
        expected = minimalize(vs, [vs.variable("x2"), vs.variable("y2", w[1])])
        assert colon_by_monomial(i2, pivot) == expected

    @given(mono_sets, st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_colon_contains_original_generators(self, ms, pivot_exps):
        ideal = minimalize(V, ms)
        out = colon_by_monomial(ideal, V.monomial(pivot_exps))
        for g in ideal.generators:
            assert contains(out, g)


class TestSumProductIntersect:
    def test_disjoint_support_smallest_case(self):
        ix = minimalize(V, [m(1, 0)])
        iy = minimalize(V, [m(0, 1)])
        xy = minimalize(V, [m(1, 1)])
        assert ideal_intersect(ix, iy) == xy == ideal_product(ix, iy)

    def test_sum_with_zero_is_identity(self):
        ideal = minimalize(V, [m(2, 0), m(1, 1)])
        assert ideal_sum(ideal, minimalize(V, [])) == ideal

    def test_crown_intersection_identity_weight_one(self):
        # (I_2 + x3*A) cap y3^w3*B = y3^w3*(I_2, x3*x1*y1^w1, x3*x2*y2^w2)
        self._crown_intersection_identity((1, 1, 1))

    def test_crown_intersection_identity_mixed_weights(self):
        self._crown_intersection_identity((2, 1, 2))

    @staticmethod
    def _crown_intersection_identity(w):
        vs = xy_variables(3)
        i2 = minimalize(
            vs,
            [
                vs.variable("x1") * vs.variable("y2", w[1]),
                vs.variable("x2") * vs.variable("y1", w[0]),
            ],
        )
        a = minimalize(vs, [vs.variable("y1", w[0]), vs.variable("y2", w[1])])
        b = minimalize(vs, [vs.variable("x1"), vs.variable("x2")])
        left = ideal_intersect(
            ideal_sum(i2, scale(vs.variable("x3"), a)),
            scale(vs.variable("y3", w[2]), b),
        )
        c = minimalize(
            vs,
            i2.generators
            + (
                vs.variable("x3") * vs.variable("x1") * vs.variable("y1", w[0]),
                vs.variable("x3") * vs.variable("x2") * vs.variable("y2", w[1]),
            ),
        )
        assert left == scale(vs.variable("y3", w[2]), c)

    @given(mono_sets, mono_sets)
    def test_disjoint_supports_intersect_equals_product(self, xs, ys):
        # force disjoint supports: xs in x only, ys in y only
        ix = minimalize(V, [V.monomial((a.exponents[0], 0)) for a in xs if a.exponents[0]])
        iy = minimalize(V, [V.monomial((0, a.exponents[1])) for a in ys if a.exponents[1]])
        assert ideal_intersect(ix, iy) == ideal_product(ix, iy)


class TestScale:
    def test_by_unit(self):
        ideal = minimalize(V, [m(2, 0), m(1, 1)])
        assert scale(m(0, 0), ideal) == ideal

    def test_translates_generators(self):
        vs = VariableSet(("x1", "x2", "y"))
        ideal = minimalize(vs, [vs.variable("x1"), vs.variable("x2")])
        out = scale(vs.variable("y", 3), ideal)
        assert set(out.generators) == {
            vs.from_dict({"x1": 1, "y": 3}),
            vs.from_dict({"x2": 1, "y": 3}),
        }

    @given(mono_sets, st.tuples(st.integers(0, 2), st.integers(0, 2)))
    def test_preserves_generator_count(self, ms, shift):
        ideal = minimalize(V, ms)
        assert len(scale(V.monomial(shift), ideal).generators) == len(ideal.generators)


class TestDominant:
    def test_variables_are_dominant(self):
        vs = VariableSet(("x1", "x2", "x3"))
        assert is_dominant(minimalize(vs, [vs.variable(f"x{i}") for i in (1, 2, 3)]))

    def test_triangle_is_not(self):
        vs = VariableSet(("x", "y", "z"))
        gens = [
            vs.from_dict({"x": 1, "y": 1}),
            vs.from_dict({"y": 1, "z": 1}),
            vs.from_dict({"z": 1, "x": 1}),
        ]
        assert not is_dominant(minimalize(vs, gens))

    def test_crown_colon_ideal_a_is_dominant(self):
        # A = (y1^w1, ..., y_{s-1}^w_{s-1}, x1*ys^ws, ..., x_{s-1}*ys^ws)
        s, w = 3, (2, 1, 3)
        vs = xy_variables(s)
        gens = [vs.variable(f"y{j}", w[j - 1]) for j in range(1, s)] + [
            vs.variable(f"x{i}") * vs.variable(f"y{s}", w[s - 1])
            for i in range(1, s)
        ]
        assert is_dominant(minimalize(vs, gens))


class TestLcmLattice:
    def test_two_generators(self):
        lattice = lcm_lattice(minimalize(V, [m(2, 0), m(1, 1)]))
        assert lattice == {m(2, 0), m(1, 1), m(2, 1)}

    def test_single_generator(self):
        assert lcm_lattice(minimalize(V, [m(3, 1)])) == {m(3, 1)}

    @pytest.mark.parametrize("w", [(1, 1), (2, 5)])
    def test_crown2_lattice_size(self, w):
        # brute-force oracle: lcms over all nonempty generator subsets
        ideal = edge_ideal(crown(2, w))
        brute = {
            lcm_of(sub)
            for r in range(1, len(ideal.generators) + 1)
            for sub in combinations(ideal.generators, r)
        }
        assert lcm_lattice(ideal) == brute
        assert len(brute) == 3

    @settings(max_examples=300)
    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 4), min_size=1, max_size=5))
    def test_matches_lcms_of_generator_subsets(self, exps):
        v4 = VariableSet(("a", "b", "c", "d"))
        ideal = minimalize(v4, [v4.monomial(e) for e in exps])
        gens = ideal.generators
        brute = {
            lcm_of(sub) for r in range(1, len(gens) + 1) for sub in combinations(gens, r)
        }
        assert lcm_lattice(ideal) == brute

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(*[st.sampled_from([0, 1, 7, 10**12, 10**30])] * 5), min_size=1, max_size=6
        ),
        st.sets(st.integers(0, 4), max_size=3),
    )
    def test_sparse_huge_levels_match_subset_lcms(self, exps, absent):
        # few, far-apart levels per variable and variables no generator uses:
        # the closure codes ranks among levels, never raw exponent values
        v5 = VariableSet(("a", "b", "c", "d", "e"))
        rows = [tuple(0 if k in absent else e for k, e in enumerate(g)) for g in exps]
        ideal = minimalize(v5, [v5.monomial(g) for g in rows if any(g)])
        gens = ideal.generators
        brute = {
            lcm_of(sub) for r in range(1, len(gens) + 1) for sub in combinations(gens, r)
        }
        assert lcm_lattice(ideal) == brute

    def test_weight_of_a_billion_is_one_level(self):
        start = time.perf_counter()
        table = multigraded_betti(edge_ideal(crown(3, (10**9, 1, 1))))
        assert table == multigraded_betti_formula(3, (10**9, 1, 1))
        assert time.perf_counter() - start < 1


    @pytest.mark.parametrize("cap", [1, 5, 30])
    def test_lattice_past_the_cap_is_refused(self, monkeypatch, cap):
        # five disjoint edges: 31 points, the closure's slices a few points each
        from crownbetti import ideals

        names = tuple(f"v{k}" for k in range(10))
        v10 = VariableSet(names)
        ideal = minimalize(v10, [v10.from_dict({names[k]: 1, names[k + 1]: 1})
                                 for k in range(0, 10, 2)])
        monkeypatch.setattr(ideals, "MAX_LISTED_ENTRIES", cap)
        with pytest.raises(ValueError, match=f"passes the cap of {cap} points"):
            lcm_lattice(ideal)
        with pytest.raises(ValueError, match="cap"):
            multigraded_betti(ideal)
        monkeypatch.setattr(ideals, "MAX_LISTED_ENTRIES", 31)
        assert len(lcm_lattice(ideal)) == 31

    def test_zero_ideal_has_an_empty_lattice(self):
        assert lcm_lattice(minimalize(V, [])) == frozenset()


class TestSupportOfIdeal:
    def test_zero_ideal(self):
        assert minimalize(V, []).support() == frozenset()

    def test_single_generator(self):
        assert minimalize(V, [m(2, 0)]).support() == {"x"}

    def test_union(self):
        assert minimalize(V, [m(2, 0), m(0, 1)]).support() == {"x", "y"}
