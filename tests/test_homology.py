import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from crownbetti import (
    BettiTable,
    FieldSpec,
    SimplicialComplexOnVars,
    VariableSet,
    contains,
    crown,
    edge_ideal,
    lcm_lattice,
    lcm_of,
    minimalize,
    multigraded_betti,
    reduced_homology_ranks,
    scale,
    theta,
    upper_koszul_complex,
    xy_variables,
)

V = VariableSet(("x", "y"))


def m(x, y):
    return V.monomial((x, y))


I_XX_XY = minimalize(V, [m(2, 0), m(1, 1)])

V4 = VariableSet(("a", "b", "c", "d"))
# ideals of 1-5 generators over four variables, the unit ideal excluded
ideals4 = st.lists(
    st.tuples(*[st.integers(0, 3)] * 4).filter(any), min_size=1, max_size=5
).map(lambda gens: minimalize(V4, [V4.monomial(g) for g in gens]))


class TestUpperKoszul:
    def test_faces_by_enumeration(self):
        # brute-force oracle over the four subsets of {x, y} at a = x^2*y
        a = m(2, 1)
        expected = set()
        for bx, by in itertools.product((0, 1), repeat=2):
            b = m(bx, by)
            reduced = V.monomial((2 - bx, 1 - by))
            if contains(I_XX_XY, reduced):
                expected.add(b.support())
        complex_ = upper_koszul_complex(I_XX_XY, a)
        assert set(complex_.faces) == expected
        assert expected == {frozenset(), frozenset({"x"}), frozenset({"y"})}

    def test_minimal_generator_gives_point_complex(self):
        complex_ = upper_koszul_complex(I_XX_XY, m(1, 1))
        assert complex_.faces == frozenset({frozenset()})

    def test_monomial_outside_ideal_gives_void_complex(self):
        assert upper_koszul_complex(I_XX_XY, m(0, 3)).is_void()

    def test_unit_ideal_rejected(self):
        with pytest.raises(ValueError):
            upper_koszul_complex(minimalize(V, [m(0, 0)]), m(1, 1))

    def test_point_over_other_variables_rejected(self):
        ideal = edge_ideal(crown(2, (1, 1)))
        with pytest.raises(ValueError):
            upper_koszul_complex(ideal, V4.monomial((1, 1, 1, 1)))

    @settings(max_examples=300)
    @given(ideals4, st.tuples(*[st.integers(0, 4)] * 4))
    def test_faces_match_definition(self, ideal, exps):
        # every squarefree b within supp(a), kept when x^(a-b) lies in I
        support = [k for k, e in enumerate(exps) if e > 0]

        def reduced(mask):
            b = [0] * len(exps)
            for j, k in enumerate(support):
                b[k] = mask >> j & 1
            return V4.monomial([e - x for e, x in zip(exps, b)])

        expected = tuple(
            mask for mask in range(1 << len(support)) if contains(ideal, reduced(mask))
        )
        complex_ = upper_koszul_complex(ideal, V4.monomial(exps))
        assert complex_.ground == tuple(V4.names[k] for k in support)
        assert complex_.masks == expected


def simplex_closure(facets):
    faces = set()
    for facet in facets:
        for r in range(len(facet) + 1):
            faces.update(frozenset(c) for c in itertools.combinations(facet, r))
    return frozenset(faces)


# minimal 6-vertex triangulation of the real projective plane
RP2_FACETS = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]


class TestReducedHomology:
    @pytest.mark.parametrize("char", [0, 2, 32003, 4294967311])
    def test_hollow_triangle_has_h1(self, char):
        complex_ = SimplicialComplexOnVars.from_faces(
            ("a", "b", "c"), simplex_closure([("a", "b"), ("b", "c"), ("a", "c")])
        )
        assert reduced_homology_ranks(complex_, FieldSpec(char)) == {1: 1}

    @pytest.mark.parametrize("char", [0, 2, 32003, 4294967311])
    def test_two_points_have_h0(self, char):
        complex_ = SimplicialComplexOnVars.from_faces(("a", "b"), simplex_closure([("a",), ("b",)]))
        assert reduced_homology_ranks(complex_, FieldSpec(char)) == {0: 1}

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_full_simplex_is_acyclic(self, size):
        ground = tuple(f"v{i}" for i in range(size))
        complex_ = SimplicialComplexOnVars.from_faces(ground, simplex_closure([ground]))
        assert reduced_homology_ranks(complex_, FieldSpec()) == {}

    def test_empty_face_only(self):
        complex_ = SimplicialComplexOnVars.from_faces((), [()])
        assert reduced_homology_ranks(complex_, FieldSpec()) == {-1: 1}

    def test_void_complex(self):
        assert reduced_homology_ranks(SimplicialComplexOnVars.from_faces((), []), FieldSpec()) == {}

    @pytest.mark.parametrize(
        "faces", [[(), ("a",), ("z",)], [(), ("a",), ("a", "b")], [("a",)]]
    )
    def test_from_faces_rejects_bad_face_sets(self, faces):
        # a label outside the ground set; a face set that is not downward closed
        with pytest.raises(ValueError):
            SimplicialComplexOnVars.from_faces(("a", "b"), faces)

    def test_from_faces_masks_follow_ground_order(self):
        complex_ = SimplicialComplexOnVars.from_faces(("a", "b"), simplex_closure([("b",)]))
        assert complex_.masks == (0, 2)
        assert complex_.faces == frozenset({frozenset(), frozenset({"b"})})

    def test_projective_plane_distinguishes_characteristic(self):
        # homology differs over F_2 vs F_32003
        relabeled = [tuple(f"v{i}" for i in f) for f in RP2_FACETS]
        ground = tuple(f"v{i}" for i in range(1, 7))
        complex_ = SimplicialComplexOnVars.from_faces(ground, simplex_closure(relabeled))
        assert reduced_homology_ranks(complex_, FieldSpec(2)) == {1: 1, 2: 1}
        assert reduced_homology_ranks(complex_, FieldSpec(32003)) == {}
        assert reduced_homology_ranks(complex_, FieldSpec(0)) == {}

    def test_euler_poincare_on_koszul_complexes(self):
        ideal = edge_ideal(crown(3, (1, 2, 1)))
        for a in lcm_lattice(ideal):
            complex_ = upper_koszul_complex(ideal, a)
            face_sum = sum((-1) ** (len(f) - 1) for f in complex_.faces)
            ranks = reduced_homology_ranks(complex_, FieldSpec())
            rank_sum = sum((-1) ** d * r for d, r in ranks.items())
            assert face_sum == rank_sum


class TestMultigradedBetti:
    @pytest.mark.parametrize("w", [(1, 1), (3, 2)])
    def test_crown2_complete_intersection(self, w):
        graph = crown(2, w)
        ideal = edge_ideal(graph)
        table = multigraded_betti(ideal)
        g1, g2 = ideal.generators
        assert table.entries == {
            (0, g1): 1,
            (0, g2): 1,
            (1, theta(graph)): 1,
        }
        assert table.pdim() == 1

    def test_dominant_pair(self):
        table = multigraded_betti(I_XX_XY)
        assert table.entries == {(0, m(2, 0)): 1, (0, m(1, 1)): 1, (1, m(2, 1)): 1}

    def test_principal_ideal(self):
        table = multigraded_betti(minimalize(V, [m(3, 2)]))
        assert table.entries == {(0, m(3, 2)): 1}

    def test_zero_and_unit_ideals_rejected(self):
        with pytest.raises(ValueError):
            multigraded_betti(minimalize(V, []))
        with pytest.raises(ValueError):
            multigraded_betti(minimalize(V, [m(0, 0)]))

    def test_audit_full_box_agrees_with_lattice(self):
        for ideal in [
            I_XX_XY,
            edge_ideal(crown(2, (2, 1))),
            minimalize(V, [m(2, 0), m(1, 1), m(0, 2)]),
        ]:
            assert multigraded_betti(ideal, audit_full_box=True) == multigraded_betti(ideal)

    def test_scaling_invariance(self):
        u = m(1, 2)
        table = multigraded_betti(I_XX_XY)
        scaled = multigraded_betti(scale(u, I_XX_XY))
        assert scaled.total() == table.total()
        assert scaled.entries == {(i, u * a): c for (i, a), c in table.entries.items()}

    @settings(max_examples=100)
    @given(ideals4, st.sampled_from([0, 2, 32003]))
    def test_memoised_table_matches_point_by_point(self, ideal, char):
        # every point of the box below the lcm, each complex computed afresh
        field = FieldSpec(char)
        top = lcm_of(ideal.generators).exponents
        entries = {}
        for exps in itertools.product(*(range(e + 1) for e in top)):
            if not any(exps):
                continue
            a = V4.monomial(exps)
            for d, r in reduced_homology_ranks(upper_koszul_complex(ideal, a), field).items():
                entries[(d + 1, a)] = r
        expected = BettiTable(V4, entries)
        assert multigraded_betti(ideal, field) == expected
        assert multigraded_betti(ideal, field, audit_full_box=True) == expected

    def test_alternating_sum_vanishes(self):
        for w in [(1, 1, 1), (2, 1, 3)]:
            totals = multigraded_betti(edge_ideal(crown(3, w))).total_sequence()
            assert 1 + sum((-1) ** (i + 1) * b for i, b in enumerate(totals)) == 0


class TestAggregation:
    def test_crown2_graded_and_regularity(self):
        table = multigraded_betti(edge_ideal(crown(2, (1, 1))))
        assert table.graded() == {(0, 2): 2, (1, 4): 1}
        assert table.regularity() == 3

    def test_crown3_regularity_and_pdim(self):
        table = multigraded_betti(edge_ideal(crown(3, (1, 1, 1))))
        assert table.regularity() == 3
        assert table.pdim() == 3

    def test_empty_table_aggregations_rejected(self):
        table = BettiTable(V, {})
        for op in (table.graded, table.total, table.pdim, table.regularity):
            with pytest.raises(ValueError):
                op()

    def test_quotient_shift(self):
        table = multigraded_betti(I_XX_XY)
        shifted = table.quotient_shifted()
        assert shifted.entries == {(i + 1, a): c for (i, a), c in table.entries.items()}

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            BettiTable(V, {(0, m(1, 0)): 0})


def dense_rank(matrix, char):
    """Reference rank of a list of rows: row reduction over Fractions
    (char 0) or ints mod p."""
    rows = [[x % char if char else Fraction(x) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, char) if char else 1 / rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inv
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
            if char:
                rows[r] = [a % char for a in rows[r]]
        rank += 1
    return rank


@st.composite
def small_matrices(draw):
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    row = st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols)
    return [draw(row) for _ in range(nrows)]


CHARACTERISTICS = st.sampled_from([0, 2, 3, 32003, 4294967311])


def dense_homology_ranks(complex_, char):
    """Reference reduced homology: every boundary map as a dense matrix of
    rows, ranked by dense_rank, with no clearing."""
    by_dim = {}
    for mask in complex_.masks:
        by_dim.setdefault(bin(mask).count("1") - 1, []).append(mask)
    boundary_rank = {}
    for d, cols in by_dim.items():
        rows = by_dim.get(d - 1, [])
        matrix = [[0] * len(cols) for _ in rows]
        for j, mask in enumerate(cols):
            sign = 1
            for k in range(len(complex_.ground)):
                if mask >> k & 1:
                    matrix[rows.index(mask ^ (1 << k))][j] = sign
                    sign = -sign
        boundary_rank[d] = dense_rank(matrix, char)
    ranks = {}
    for d, faces in by_dim.items():
        r = len(faces) - boundary_rank[d] - boundary_rank.get(d + 1, 0)
        if r:
            ranks[d] = r
    return ranks


class TestClearing:
    @settings(max_examples=300)
    @given(
        st.lists(st.sets(st.integers(1, 6), max_size=6), min_size=1, max_size=4),
        CHARACTERISTICS,
    )
    @example(RP2_FACETS, 2)
    @example(RP2_FACETS, 0)
    def test_ranks_match_dense_boundary_reference(self, facets, char):
        # the downward closure of random facets over at most six vertices
        ground = tuple(f"v{i}" for i in range(1, 7))
        complex_ = SimplicialComplexOnVars.from_faces(
            ground, simplex_closure([tuple(f"v{i}" for i in facet) for facet in facets])
        )
        field = FieldSpec(char)
        assert reduced_homology_ranks(complex_, field) == dense_homology_ranks(complex_, char)


class TestFieldSpec:
    def test_composite_characteristic_rejected(self):
        with pytest.raises(ValueError):
            FieldSpec(4)

    def test_large_prime_accepted(self):
        assert FieldSpec(10**18 + 3).characteristic == 10**18 + 3

    @pytest.mark.parametrize(
        "char", [10**18 + 1, 4294967297, 3215031751, 2**64 + 13, 2.0, 32003.0, False]
    )
    def test_large_composite_or_oversized_characteristic_rejected(self, char):
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
        with pytest.raises(ValueError):
            FieldSpec(char)

    @given(small_matrices(), CHARACTERISTICS)
    @example([], 0)
    @example([[], [], [], []], 2)
    @example([[2, 4], [1, 2]], 2)
    def test_rank_matches_dense_reference(self, matrix, char):
        assert FieldSpec(char).rank(matrix) == dense_rank(matrix, char)

    def test_rank_refuses_non_integer_entries(self):
        # a float entry would make the reduction inexact
        with pytest.raises(TypeError):
            FieldSpec(0).rank([[1, 0.5]])

    def test_field_robustness_crown3(self):
        ideal = edge_ideal(crown(3, (1, 2, 3)))
        tables = [multigraded_betti(ideal, FieldSpec(c)) for c in (2, 32003, 0, 4294967311)]
        assert tables[0] == tables[1] == tables[2] == tables[3]

    def test_restriction_lemma_exhaustive_crown3(self):
        from crownbetti import induced_subgraph

        graph = crown(3, (2, 1, 1))
        full = multigraded_betti(edge_ideal(graph))
        lattice = lcm_lattice(edge_ideal(graph))
        for size in range(7):
            for subset in itertools.combinations(graph.vertices.names, size):
                window = set(subset)
                sub_ideal = edge_ideal(induced_subgraph(graph, window))
                sub = None if sub_ideal.is_zero() else multigraded_betti(sub_ideal)
                for a in lattice:
                    if not a.support() <= window:
                        continue
                    for i in range(full.pdim() + 2):
                        want = full.entry(i, a)
                        got = sub.entry(i, a) if sub is not None else 0
                        assert got == want
