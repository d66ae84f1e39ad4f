import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from crownbetti import (
    BettiTable,
    FieldSpec,
    VariableSet,
    WeightedOrientedGraph,
    contains,
    crown,
    edge_ideal,
    induced_subgraph,
    lcm_lattice,
    lcm_of,
    minimalize,
    multigraded_betti,
    multigraded_betti_formula,
    scale,
    shape_betti_formula,
    table_to_json_dict,
    theta,
    upper_koszul_complex,
    xy_variables,
)
from crownbetti import homology, ideals
from crownbetti.graphs import _xy_graph
from crownbetti.homology import _dual_faces, _facet_ranks, _ranks, _strong_core, _submasks

V = VariableSet(("x", "y"))


def m(x, y):
    return V.monomial((x, y))


I_XX_XY = minimalize(V, [m(2, 0), m(1, 1)])

V4 = VariableSet(("a", "b", "c", "d"))
# ideals of 1-5 generators over four variables, the unit ideal excluded
ideals4 = st.lists(
    st.tuples(*[st.integers(0, 3)] * 4).filter(any), min_size=1, max_size=5
).map(lambda gens: minimalize(V4, [V4.monomial(g) for g in gens]))
# Betti tables over V4: indices 0..5 (gaps allowed), counts 1..3
tables4 = st.dictionaries(
    st.tuples(st.integers(0, 5), st.tuples(*[st.integers(0, 3)] * 4).map(V4.monomial)),
    st.integers(1, 3),
    min_size=1,
    max_size=12,
).map(lambda entries: BettiTable(V4, entries))


NAMES6 = tuple(f"v{i}" for i in range(1, 7))


@st.composite
def graph_ideals6(draw):
    """Edge ideals of weighted oriented graphs on six vertices: random
    edges, each oriented at random, every vertex weighted in 1..3."""
    pairs = draw(st.sets(st.sampled_from(list(itertools.combinations(NAMES6, 2))), min_size=1))
    edges = frozenset(pair if draw(st.booleans()) else pair[::-1] for pair in sorted(pairs))
    weights = draw(st.lists(st.integers(1, 3), min_size=6, max_size=6))
    return edge_ideal(WeightedOrientedGraph(VariableSet(NAMES6), edges, dict(zip(NAMES6, weights))))


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
        assert upper_koszul_complex(I_XX_XY, m(0, 3)).masks == ()

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


def closure_masks(ground, facets):
    """The face masks of the downward closure of these label facets, bit k for ground[k]."""
    pos = {v: k for k, v in enumerate(ground)}
    return sorted({sum(1 << pos[v] for v in face) for face in simplex_closure(facets)})


# minimal 6-vertex triangulation of the real projective plane
RP2_FACETS = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
    (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
]


class TestReducedHomology:
    @pytest.mark.parametrize("char", [0, 2, 32003, 4294967311])
    def test_hollow_triangle_has_h1(self, char):
        masks = closure_masks(("a", "b", "c"), [("a", "b"), ("b", "c"), ("a", "c")])
        assert _ranks(masks, FieldSpec(char)) == {1: 1}

    @pytest.mark.parametrize("char", [0, 2, 32003, 4294967311])
    def test_two_points_have_h0(self, char):
        masks = closure_masks(("a", "b"), [("a",), ("b",)])
        assert _ranks(masks, FieldSpec(char)) == {0: 1}

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_full_simplex_is_acyclic(self, size):
        ground = tuple(f"v{i}" for i in range(size))
        assert _ranks(closure_masks(ground, [ground]), FieldSpec()) == {}

    def test_empty_face_only(self):
        assert _ranks(closure_masks((), [()]), FieldSpec()) == {-1: 1}

    def test_projective_plane_distinguishes_characteristic(self):
        # homology differs over F_2 vs F_32003
        masks = closure_masks(range(1, 7), RP2_FACETS)
        assert _ranks(masks, FieldSpec(2)) == {1: 1, 2: 1}
        assert _ranks(masks, FieldSpec(32003)) == {}
        assert _ranks(masks, FieldSpec(0)) == {}

    def test_euler_poincare_on_koszul_complexes(self):
        ideal = edge_ideal(crown(3, (1, 2, 1)))
        for a in lcm_lattice(ideal):
            complex_ = upper_koszul_complex(ideal, a)
            face_sum = sum((-1) ** (len(f) - 1) for f in complex_.faces)
            ranks = _ranks(complex_.masks, FieldSpec())
            rank_sum = sum((-1) ** d * r for d, r in ranks.items())
            assert face_sum == rank_sum


def full_box_table(ideal, field):
    """The Betti table from every point of the box below the lcm of the
    generators, not only the lcm lattice, each complex built afresh from
    its definition and reduced by the dense reference."""
    top = lcm_of(ideal.generators).exponents
    entries = {}
    for exps in itertools.product(*(range(e + 1) for e in top)):
        if not any(exps):
            continue
        a = ideal.variables.monomial(exps)
        masks = upper_koszul_complex(ideal, a).masks
        for d, r in dense_homology_ranks(masks, field.characteristic).items():
            entries[(d + 1, a)] = r
    return BettiTable(ideal.variables, entries)


def lattice_table(ideal, field):
    """The Betti table from the points of the lcm lattice, each complex
    built afresh from its definition and reduced by the dense reference."""
    entries = {}
    for a in lcm_lattice(ideal):
        masks = upper_koszul_complex(ideal, a).masks
        for d, r in dense_homology_ranks(masks, field.characteristic).items():
            entries[(d + 1, a)] = r
    return BettiTable(ideal.variables, entries)


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

    def test_full_box_sweep_agrees_with_lattice(self):
        for ideal in [
            I_XX_XY,
            edge_ideal(crown(2, (2, 1))),
            minimalize(V, [m(2, 0), m(1, 1), m(0, 2)]),
        ]:
            assert full_box_table(ideal, FieldSpec()) == multigraded_betti(ideal)

    def test_scaling_invariance(self):
        u = m(1, 2)
        table = multigraded_betti(I_XX_XY)
        scaled = multigraded_betti(scale(u, I_XX_XY))
        assert scaled.total() == table.total()
        assert scaled.entries == {(i, u * a): c for (i, a), c in table.entries.items()}

    @settings(max_examples=100)
    @given(ideals4, st.sampled_from([0, 2, 32003]))
    def test_memoised_table_matches_point_by_point(self, ideal, char):
        field = FieldSpec(char)
        assert multigraded_betti(ideal, field) == full_box_table(ideal, field)

    @settings(max_examples=100, deadline=None)
    @given(graph_ideals6(), st.sampled_from([0, 2, 32003]))
    def test_memoised_graph_table_matches_point_by_point(self, ideal, char):
        # six vertices give keys that collapse to the same core and cones
        # that skip the collapse, both within one call
        field = FieldSpec(char)
        assert multigraded_betti(ideal, field) == lattice_table(ideal, field)

    def test_alternating_sum_vanishes(self):
        for w in [(1, 1, 1), (2, 1, 3)]:
            totals = multigraded_betti(edge_ideal(crown(3, w))).total_sequence()
            assert 1 + sum((-1) ** (i + 1) * b for i, b in enumerate(totals)) == 0


def plain_betti(ideal, field=FieldSpec()):
    """multigraded_betti with no block classes, so down the lattice path."""
    classes = ideals._block_classes
    ideals._block_classes = lambda edges: None
    try:
        return multigraded_betti(ideal, field)
    finally:
        ideals._block_classes = classes


def plain_closure(ideal):
    """The lcm lattice, as exponent tuples, by the plain closure of the
    generators under componentwise max."""
    gens = {g.exponents for g in ideal.generators}
    points, frontier = set(gens), gens
    while frontier:
        frontier = {tuple(map(max, p, g)) for p in frontier for g in gens} - points
        points |= frontier
    return points


def _pairwise_swap(classes):
    """The side swap as pairs of variable indices, the reference for the
    class image of ideals._side_swap: each matched pair (a, b), and the
    unmatched a's with the unmatched b's in order when there are as many of
    each.  No pairs when those counts differ."""
    pairs = [block for blocks in classes if blocks[0][0] != blocks[0][1] for block in blocks]
    singles = [[a for a, _ in blocks] for blocks in classes if blocks[0][0] == blocks[0][1]]
    if len(singles) == 1 or len(singles) == 2 and len(singles[0]) != len(singles[1]):
        return []
    return pairs + list(zip(*singles))


SHAPES8 = [
    (m, s, t)
    for s in range(1, 8)
    for t in range(1, 9 - s)
    for m in range(min(s, t) + 1)
    if (m, s, t) != (1, 1, 1)
]


class TestBlockOrbits:
    # an ideal whose pattern is K_{A,B} minus a matching, with one level per
    # variable, is reduced once per orbit of the pattern's block permutations

    @pytest.mark.parametrize("shape", SHAPES8)
    def test_orbit_table_matches_lattice_and_formula(self, shape):
        m, s, t = shape
        rows = {(1,) * t, tuple(range(1, t + 1)), tuple(range(t, 0, -1)), (10**9,) + (1,) * (t - 1)}
        for weights in sorted(rows):
            ideal = edge_ideal(_xy_graph(m, s, t, weights))
            # two disjoint edges are the one disconnected pattern here
            assert (not ideals._Lattice(ideal).classes) == (shape == (2, 2, 2))
            table = multigraded_betti(ideal)
            assert table == plain_betti(ideal) == shape_betti_formula(m, s, t, weights)

    def test_induced_subgraphs_of_crown4_match_the_lattice_path(self):
        graph = crown(4, (3, 1, 10**9, 2))
        names = graph.vertices.names
        taken = 0
        for size in range(2, 9):
            for subset in itertools.combinations(names, size):
                ideal = edge_ideal(induced_subgraph(graph, subset))
                if ideal.is_zero():
                    continue
                taken += bool(ideals._Lattice(ideal).classes)
                for char in (0, 2):
                    field = FieldSpec(char)
                    assert multigraded_betti(ideal, field) == plain_betti(ideal, field)
        assert taken > 150

    def test_one_level_per_variable_codes_the_pattern(self):
        # one level per variable: bit k is x_k, the codes are the squarefree
        # pattern's support masks, and a code decodes with the levels
        lattice = ideals._Lattice(edge_ideal(crown(3, (1, 5, 2))))
        squarefree = edge_ideal(crown(3, (1, 1, 1))).generators
        assert lattice.codes == {sum(e << k for k, e in enumerate(g.exponents)) for g in squarefree}
        assert lattice.exponents(0b111111) == (1, 1, 1, 1, 5, 2)
        assert lattice.classes
        # x takes the levels 1 and 2: two bits, and no classes
        lattice = ideals._Lattice(minimalize(V, [m(2, 0), m(1, 1)]))
        assert lattice.codes == {0b011, 0b101} and not lattice.classes
        assert [lattice.exponents(c) for c in (0b011, 0b101, 0b111)] == [(2, 0), (1, 1), (2, 1)]

    def test_no_classes_is_the_trivial_group(self, monkeypatch):
        ideal = edge_ideal(crown(3, (1, 1, 1)))
        monkeypatch.setattr(ideals, "_block_classes", lambda edges: None)
        lattice = ideals._Lattice(ideal)
        points = list(lattice.closure())
        assert lattice.canonical(points) == set(points)
        assert lattice.sizes(points) == [1] * 28
        assert lattice.expand(points) == points

    @pytest.mark.parametrize("classes", [
        [[(0, 0), (3, 3)]],  # x1 and y1 as two unmatched vertices of one class
        [[(0, 3), (1, 5), (2, 4)]],  # x2 paired with y3, not with y2
        [[(0, 3), (1, 4), (2, 5)], [(0, 0), (1, 1)]],
    ])
    def test_a_fake_block_action_is_refused(self, monkeypatch, classes):
        ideal = edge_ideal(crown(3, (1, 1, 1)))
        monkeypatch.setattr(ideals, "_block_classes", lambda edges: [[(0, 3), (1, 4), (2, 5)]])
        assert len(ideals._Lattice(ideal).classes) == 1
        monkeypatch.setattr(ideals, "_block_classes", lambda edges: classes)
        with pytest.raises(ValueError, match="does not map the generators onto themselves"):
            ideals._Lattice(ideal)
        with pytest.raises(ValueError, match="does not map the generators onto themselves"):
            multigraded_betti(ideal)

    def test_classes_that_miss_a_code_bit_are_refused(self, monkeypatch):
        # the pairs x1 y1 and x2 y2 alone do permute the crown's generators,
        # and their orbits count up to the 6 generators, but a state would
        # not hold x3 or y3
        ideal = edge_ideal(crown(3, (1, 1, 1)))
        monkeypatch.setattr(ideals, "_block_classes", lambda edges: [[(0, 3), (1, 4)]])
        with pytest.raises(ValueError, match="block action does not map the generators onto themselves"):
            ideals._Lattice(ideal)

    @pytest.mark.parametrize("edges, blocks", [
        # K_{2,3} minus one edge, listed with the lower side second
        ([(3, 1), (4, 0), (4, 1), (2, 0), (2, 1)], [[(0, 3)], [(1, 1)], [(2, 2), (4, 4)]]),
        ([(0, 1), (1, 2), (2, 0)], None),  # a triangle is not bipartite
        ([(0, 1), (2, 3)], None),  # two disjoint edges: a disconnected support
        ([(0, 3), (0, 4), (1, 3), (1, 4), (2, 5)], None),
        ([(0, 2), (1, 3), (0, 4), (1, 4)], [[(0, 3), (1, 2)], [(4, 4)]]),
        # the path 0-1-2-3-4 is K_{3,2} minus a matching; the path on six
        # vertices is not, since 0 misses both 3 and 5
        ([(0, 1), (1, 2), (2, 3), (3, 4)], [[(0, 3), (4, 1)], [(2, 2)]]),
        ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], None),
    ])
    def test_block_classes(self, edges, blocks):
        assert ideals._block_classes(edges) == blocks

    @pytest.mark.parametrize("shape, weights", [
        ((5, 5, 5), (1, 2, 3, 1, 2)),
        ((5, 5, 5), (1, 1, 10**9, 1, 1)),
        ((2, 4, 3), (10**9, 1, 2)),  # all three classes: two pairs, x3 and x4, y3
        ((2, 4, 4), (10**9, 1, 2, 3)),  # the swap takes x3 and x4 to y3 and y4
        ((0, 3, 3), (1, 1, 1)),
        ((0, 3, 3), (2, 10**9, 1)),
        ((3, 3, 4), (4, 3, 2, 1)),
    ])
    def test_orbits_cover_the_lattice(self, shape, weights):
        ideal = edge_ideal(_xy_graph(*shape, weights))
        lattice = ideals._Lattice(ideal)
        points = list(lattice.closure())
        orbits = [lattice.expand([p]) for p in points]
        covered = [lattice.exponents(q) for orbit in orbits for q in orbit]
        expected = plain_closure(ideal)
        assert lattice.sizes(points) == list(map(len, orbits))
        assert len(covered) == len(expected)
        assert set(covered) == expected
        assert all(lattice.canonical(orbit) == {p} for p, orbit in zip(points, orbits))

    @pytest.mark.parametrize("shape, pairs", [
        # a crown swaps x_r and y_r; the unmatched x3, x4 go to y3, y4
        ((5, 5, 5), [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]),
        ((2, 4, 4), [(0, 4), (1, 5), (2, 6), (3, 7)]),
        ((0, 3, 3), [(0, 3), (1, 4), (2, 5)]),
        # one unmatched x and no unmatched y; one unmatched x and two y's
        ((3, 4, 3), []),
        ((2, 3, 4), []),
    ])
    def test_side_swap(self, shape, pairs):
        # the class image: a matched class maps to itself and the two
        # unmatched classes to each other, as the pairwise swap maps blocks
        images = {(5, 5, 5): [0], (2, 4, 4): [0, 2, 1], (0, 3, 3): [1, 0]}
        ideal = edge_ideal(_xy_graph(*shape, (1,) * shape[2]))
        lattice = ideals._Lattice(ideal)
        edges = [(c.bit_length() - 1, (c & -c).bit_length() - 1) for c in lattice.codes]
        classes = ideals._block_classes(edges)
        image = ideals._side_swap(classes)
        assert image == lattice.swap == images.get(shape)
        assert _pairwise_swap(classes) == pairs
        # a block (a, b) goes to (swap a, swap b), which is the block
        # (swap b, swap a) of the image class with states 1 and 2 exchanged
        swap = {u: v for a, b in pairs for u, v in ((a, b), (b, a))}
        for c, blocks in enumerate(classes if image else []):
            assert {(swap[b], swap[a]) for a, b in blocks} == set(classes[image[c]])

    @pytest.mark.parametrize("image", [
        [0, 1, 2],  # x3, x4, y3, y4 kept: x1*y3 would go to y1*y3
        [1, 0, 2],  # the pairs with x3, x4: x3*y3 would go to x1*y1*y3
    ])
    def test_a_fake_side_swap_is_refused(self, monkeypatch, image):
        # a crown's one class has only the image [0], so the fakes are on
        # (2, 4, 4): the pairs x1 y1 and x2 y2, then x3 and x4, then y3 and y4
        ideal = edge_ideal(_xy_graph(2, 4, 4, (1, 1, 1, 1)))
        assert ideals._Lattice(ideal).swap == [0, 2, 1]
        monkeypatch.setattr(ideals, "_side_swap", lambda classes: image)
        with pytest.raises(ValueError, match="side swap does not map the generators onto themselves"):
            ideals._Lattice(ideal)
        with pytest.raises(ValueError, match="side swap does not map the generators onto themselves"):
            multigraded_betti(ideal)

    @pytest.mark.parametrize("single", [False, True])
    def test_block_orbit_lists_the_distinct_permutations(self, single):
        # every count signature of k <= 5 blocks, matched pairs or unmatched
        # vertices, in a code with a bit outside the class; the placement
        # table is shared by the signatures of one class
        for k in range(1, 6):
            blocks = ideals._Blocks([(r, r if single else k + r) for r in range(k)], 2 * k + 1)
            used = (0, 3) if single else (0, 1, 2, 3)
            for states in itertools.combinations_with_replacement(used, k):
                def code(order):
                    return sum(blocks.spread[r][s] for r, s in enumerate(order))

                counts = tuple(map(states.count, range(4)))
                placed = blocks.placed(counts)
                expected = {code(order) for order in itertools.permutations(states)}
                assert sorted(placed) == sorted(expected)
                assert len(placed) == blocks.size(counts)
                assert {blocks.counts(q) for q in placed} == {counts}
                # the canonical placement: state 3, then 2, then 1 in block order
                assert blocks.place(counts) == code(sorted(states, reverse=True))

    @pytest.mark.parametrize("shape", [shape for shape in SHAPES8 if shape != (2, 2, 2)])
    def test_orbits_match_the_pairwise_swap(self, shape):
        # the orbit of each canonical point under adjacent block
        # transpositions within each class and the pairwise swap, by BFS on
        # bits, is the lattice's orbit
        ideal = edge_ideal(_xy_graph(*shape, (1,) * shape[2]))
        lattice = ideals._Lattice(ideal)
        edges = [(c.bit_length() - 1, (c & -c).bit_length() - 1) for c in lattice.codes]
        classes = ideals._block_classes(edges)
        moves = [
            list(zip(blocks[r], blocks[r + 1])) for blocks in classes for r in range(len(blocks) - 1)
        ]
        perms = [{u: v for a, b in swaps for u, v in ((a, b), (b, a))} for swaps in moves]
        perms.append({u: v for a, b in _pairwise_swap(classes) for u, v in ((a, b), (b, a))})

        def moved(perm, point):
            return sum(1 << perm.get(k, k) for k in range(point.bit_length()) if point >> k & 1)

        points = list(lattice.closure())
        for p, size in zip(points, lattice.sizes(points)):
            orbit = frontier = {p}
            while frontier:
                frontier = {moved(perm, q) for q in frontier for perm in perms} - orbit
                orbit |= frontier
            assert set(lattice.expand([p])) == orbit
            assert size == len(orbit)

    def test_a_fresh_lattice_has_empty_placement_tables(self):
        ideal = edge_ideal(crown(5, (1, 2, 3, 1, 2)))
        lattice = ideals._Lattice(ideal)
        assert lattice.classes and not any(blocks.placements for blocks in lattice.classes)
        lattice.expand(lattice.closure())
        assert all(blocks.placements for blocks in lattice.classes)
        assert not any(blocks.placements for blocks in ideals._Lattice(ideal).classes)

    def test_each_orbit_is_reduced_once(self, monkeypatch):
        # crown n = 7 has 55 orbits of its pair permutations and side swap
        # (92 of the pair permutations alone) on its 15,240 lattice points;
        # the key is taken at one point of each
        keys, facet_key = [], homology._facet_key

        def counting(generators, exps):
            keys.append(exps)
            return facet_key(generators, exps)

        monkeypatch.setattr(homology, "_facet_key", counting)
        table = multigraded_betti(edge_ideal(crown(7, (1, 2, 3, 4, 5, 6, 7))))
        assert len(keys) == len(set(keys)) == 55
        assert table == multigraded_betti_formula(7, (1, 2, 3, 4, 5, 6, 7))

    def test_a_table_past_the_cap_stops_early(self, monkeypatch):
        # crown n = 6 has 37 orbits, at most 108 points in a round of the
        # closure and 2,511 entries: the running entry count passes a cap of
        # 200 long before the last orbit is reduced
        ideal = edge_ideal(crown(6, (1, 2, 3, 4, 5, 6)))
        orbits = len(ideals._Lattice(ideal).closure())
        calls, facet_ranks = [], homology._facet_ranks

        def spy(facets, field, cores):
            calls.append(facets)
            return facet_ranks(facets, field, cores)

        monkeypatch.setattr(homology, "_facet_ranks", spy)
        multigraded_betti(ideal)
        everything = len(calls)
        calls.clear()
        monkeypatch.setattr(ideals, "MAX_LISTED_ENTRIES", 200)
        with pytest.raises(ValueError, match="the table passes the cap of 200 multigraded entries"):
            multigraded_betti(ideal)
        assert len(calls) < everything <= orbits

    def test_a_trivial_group_table_past_the_cap_is_refused(self, monkeypatch):
        # no block classes: 18 lattice points, each its own orbit, carry 19
        # entries, so a cap of 18 entries is passed although the lattice is not
        V6 = VariableSet(NAMES6)
        gens = [
            (0, 1, 0, 2, 0, 2), (0, 1, 2, 2, 1, 0), (0, 2, 0, 2, 1, 0),
            (1, 2, 2, 0, 1, 2), (2, 0, 0, 0, 0, 0),
        ]
        ideal = minimalize(V6, [V6.monomial(g) for g in gens])
        assert not ideals._Lattice(ideal).classes and len(lcm_lattice(ideal)) == 18
        assert len(multigraded_betti(ideal).entries) == 19
        monkeypatch.setattr(ideals, "MAX_LISTED_ENTRIES", 18)
        refusal = "^the table passes the cap of 18 multigraded entries$"
        with pytest.raises(ideals._PastCap, match=refusal):
            multigraded_betti(ideal)


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
        for op in (table.graded, table.total, table.total_sequence, table.pdim, table.regularity):
            with pytest.raises(ValueError, match="empty Betti table"):
                op()

    @given(tables4)
    @settings(max_examples=60, deadline=None)
    def test_aggregates_match_definitions_and_report(self, table):
        pdim = max(i for i, _ in table.entries)
        totals = [sum(c for (i, _), c in table.entries.items() if i == k) for k in range(pdim + 1)]
        assert table.pdim() == pdim
        assert table.regularity() == max(a.degree() - i for i, a in table.entries)
        assert table.total_sequence() == totals
        assert table.total() == {i: b for i, b in enumerate(totals) if b}
        report = table_to_json_dict(table)
        assert (report["pdim"], report["reg"], report["total"]) == (
            table.pdim(),
            table.regularity(),
            table.total_sequence(),
        )

    def test_quotient_shift(self):
        table = multigraded_betti(I_XX_XY)
        shifted = table.quotient_shifted()
        assert shifted.entries == {(i + 1, a): c for (i, a), c in table.entries.items()}

    def test_zero_entries_rejected(self):
        with pytest.raises(ValueError):
            BettiTable(V, {(0, m(1, 0)): 0})


class TestDifferences:
    def test_two_empty_tables(self):
        assert BettiTable(V, {}).differences(BettiTable(V, {})) == []

    def test_empty_against_nonempty(self):
        table = multigraded_betti(I_XX_XY)
        assert BettiTable(V, {}).differences(table) == sorted(table.entries)

    def test_disjoint_keys(self):
        ones = BettiTable(V, {(0, m(2, 0)): 1, (1, m(2, 1)): 1})
        others = BettiTable(V, {(0, m(1, 1)): 2})
        assert ones.differences(others) == [(0, m(1, 1)), (0, m(2, 0)), (1, m(2, 1))]

    def test_value_only(self):
        ones = BettiTable(V, {(0, m(2, 0)): 1, (0, m(1, 1)): 1})
        others = BettiTable(V, {(0, m(2, 0)): 1, (0, m(1, 1)): 3})
        assert ones.differences(others) == [(0, m(1, 1))]

    def test_equal_tables(self):
        table = multigraded_betti(edge_ideal(crown(3, (2, 1, 3))))
        assert table.differences(BettiTable(table.variables, dict(table.entries))) == []

    @given(ideals4, ideals4)
    @settings(max_examples=30, deadline=None)
    def test_sorted_and_symmetric(self, first, second):
        a, b = multigraded_betti(first), multigraded_betti(second)
        keys = a.differences(b)
        assert keys == sorted(keys) == b.differences(a)
        assert set(keys) == {k for k in a.entries.keys() | b.entries.keys() if a.entry(*k) != b.entry(*k)}


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


def dense_homology_ranks(masks, char):
    """Reference reduced homology of the complex with these face masks
    (none: the void complex, {}): every boundary map as a dense matrix of
    rows, ranked by dense_rank, with no clearing and no collapse."""
    by_dim = {}
    for mask in masks:
        by_dim.setdefault(bin(mask).count("1") - 1, []).append(mask)
    boundary_rank = {}
    for d, cols in by_dim.items():
        row_of = {face: r for r, face in enumerate(by_dim.get(d - 1, []))}
        matrix = [[0] * len(cols) for _ in row_of]
        for j, mask in enumerate(cols):
            sign = 1
            for k in range(mask.bit_length()):
                if mask >> k & 1:
                    matrix[row_of[mask ^ (1 << k)]][j] = sign
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
        masks = closure_masks(range(1, 7), facets)
        assert _ranks(masks, FieldSpec(char)) == dense_homology_ranks(masks, char)


# the 7-vertex (Moebius-Csaszar) torus: triangles {i, i+1, i+3}, {i, i+2, i+3} mod 7
TORUS_FACETS = [
    tuple(sorted((i + d) % 7 + 1 for d in shift))
    for i in range(7)
    for shift in ((0, 1, 3), (0, 2, 3))
]
# name -> (facets over vertices 1..8, reduced homology over Q, over F_2)
SHARED_LOW_ROWS = {
    "boundary of the 6-simplex": (
        list(itertools.combinations(range(1, 8), 6)), {5: 1}, {5: 1}
    ),
    "cone over the torus": ([f + (8,) for f in TORUS_FACETS], {}, {}),
    "7-vertex torus": (TORUS_FACETS, {1: 2, 2: 1}, {1: 2, 2: 1}),
    "RP2": (RP2_FACETS, {}, {1: 1, 2: 1}),
}


class TestLazyColumns:
    @pytest.mark.parametrize("char", [0, 2, 3, 32003, 4294967311])
    @pytest.mark.parametrize("name", sorted(SHARED_LOW_ROWS))
    def test_shared_low_rows_match_dense_reference(self, name, char):
        # many faces share their natural low row (the face minus its lowest
        # vertex), so most columns start as unbuilt emergent pivots and are
        # built only when a later column collides with their row
        facets, over_q, over_f2 = SHARED_LOW_ROWS[name]
        masks = closure_masks(range(1, 9), facets)
        ranks = _ranks(masks, FieldSpec(char))
        assert ranks == dense_homology_ranks(masks, char)
        assert ranks == (over_f2 if char == 2 else over_q)


def masks_of(facets):
    """Vertex-label tuples over 1..8 as bitmasks, vertex i at bit i - 1."""
    return sorted(sum(1 << (v - 1) for v in facet) for facet in facets)


def primal_ranks(facets, char):
    """Reduced homology of the downward closure of the facet masks (none:
    the void complex), by the column reduction on every face, with no
    collapse and no dual."""
    return _ranks(_submasks(facets), FieldSpec(char)) if facets else {}


FIVE_CYCLE = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]


class TestFacetRanks:
    # _facet_ranks never builds the complex: it collapses the facets to their
    # strong-collapse core and reduces the core's Alexander dual, or the core
    # itself when the dual is the larger side

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(0, 255), max_size=6), CHARACTERISTICS)
    @example([255], 0)
    @example([255], 2)
    @example([0], 3)
    @example([0], 4294967311)
    @example([], 32003)
    @example([1, 2], 0)
    @example(masks_of(RP2_FACETS), 2)
    @example(masks_of(TORUS_FACETS), 0)
    def test_matches_primal_complex(self, sets, char):
        # random facet sets over at most eight vertices: the full simplex,
        # {empty face} and the void complex among them
        facets = tuple(sorted(f for f in set(sets) if not any(f | g == g != f for g in sets)))
        assert _facet_ranks(facets, FieldSpec(char), {}) == primal_ranks(facets, char)

    @pytest.fixture
    def reduced_sizes(self, monkeypatch):
        """The number of faces of each complex _facet_ranks reduces."""
        sizes, ranks = [], homology._ranks

        def recording(masks, field):
            masks = list(masks)
            sizes.append(len(masks))
            return ranks(masks, field)

        monkeypatch.setattr(homology, "_ranks", recording)
        return sizes

    @pytest.mark.parametrize("char", [0, 2, 32003])
    def test_five_cycle_reduces_the_primal(self, char, reduced_sizes):
        # nothing collapses (the two edges at a vertex share only that
        # vertex); the dual has 21 of the 32 sets, so the primal's 11 faces
        # are reduced
        facets = masks_of(FIVE_CYCLE)
        assert _strong_core(facets) == facets
        assert _dual_faces(0b11111, facets, 16) is None
        assert _facet_ranks(facets, FieldSpec(char), {}) == {1: 1}
        assert reduced_sizes == [11]

    def test_projective_plane_dual_is_exactly_half(self, reduced_sizes):
        facets = masks_of(RP2_FACETS)
        assert _strong_core(facets) == facets
        assert len(_dual_faces(0b111111, facets, 32)) == 32
        assert _facet_ranks(facets, FieldSpec(2), {}) == {1: 1, 2: 1}
        assert _facet_ranks(facets, FieldSpec(0), {}) == {}
        assert reduced_sizes == [32, 32]

    def test_cone_collapses_to_one_facet(self):
        # the cone over the five-cycle with apex 6
        facets = masks_of([f + (6,) for f in FIVE_CYCLE])
        assert len(_strong_core(facets)) == 1
        assert _facet_ranks(facets, FieldSpec(), {}) == {}

    def test_cone_is_answered_before_the_collapse(self, monkeypatch):
        def refuse(facets):
            raise AssertionError("a cone was collapsed")

        monkeypatch.setattr(homology, "_strong_core", refuse)
        facets = masks_of([f + (6,) for f in FIVE_CYCLE])
        assert _facet_ranks(facets, FieldSpec(), {}) == {}

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(0, 63), max_size=6),
        st.lists(st.integers(0, 7), min_size=6, max_size=6, unique=True),
        CHARACTERISTICS,
    )
    @example(masks_of(RP2_FACETS), [0, 2, 3, 4, 5, 7], 2)
    @example(masks_of(FIVE_CYCLE), [1, 2, 4, 6, 7, 0], 0)
    def test_spread_facets_match_primal_complex(self, sets, positions, char):
        # facets over six vertices, spread onto six of eight bit positions
        # (in order or not), so that the core's support has gaps; both
        # complexes share one core memo, and the second may be answered
        # from the first
        facets = tuple(sorted(f for f in set(sets) if not any(f | g == g != f for g in sets)))
        spread = tuple(sorted(
            sum(1 << positions[k] for k in range(6) if f >> k & 1) for f in facets
        ))
        field, cores = FieldSpec(char), {}
        expected = primal_ranks(facets, char)
        assert _facet_ranks(facets, field, cores) == expected
        assert _facet_ranks(spread, field, cores) == expected
        assert primal_ranks(spread, char) == expected

    def test_each_distinct_core_is_reduced_once_per_table(self, reduced_sizes):
        # the oriented six-cycle v1 -> v2 -> ... -> v6 -> v1: 11 of its 16
        # keys collapse to cores with more than one facet, and relabelled
        # onto bits 0..N-1 those are 3 distinct complexes
        edges = frozenset((NAMES6[k], NAMES6[(k + 1) % 6]) for k in range(6))
        ideal = edge_ideal(WeightedOrientedGraph(VariableSet(NAMES6), edges, {}))
        generators = homology._sparse_generators(ideal)
        keys = {homology._facet_key(generators, a.exponents) for a in lcm_lattice(ideal)}
        cores = [_strong_core(key) for key in keys if key]
        cores = [core for core in cores if len(core) > 1]
        relabelled = set()
        for core in cores:
            bits = sorted({k for facet in core for k in range(facet.bit_length()) if facet >> k & 1})
            relabelled.add(tuple(
                sum(1 << j for j, k in enumerate(bits) if facet >> k & 1) for facet in core
            ))
        assert (len(keys), len(cores), len(relabelled)) == (16, 11, 3)
        table = multigraded_betti(ideal)
        assert len(reduced_sizes) == 3
        assert table == lattice_table(ideal, FieldSpec())

    def test_a_key_equal_to_a_relabelled_core_is_a_memo_hit(self, monkeypatch, reduced_sizes):
        # over x y z u v with I = (xy, yz, u, v): at xyz the facets {x}, {z}
        # are the key (0b001, 0b100), a core that relabels to (0b01, 0b10),
        # the key at uv; the points are read largest first, so xyz comes
        # before uv, and the one memo answers uv's key from xyz's core
        V5 = VariableSet(("x", "y", "z", "u", "v"))
        gens = [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]
        ideal = minimalize(V5, [V5.monomial(g) for g in gens])
        generators = homology._sparse_generators(ideal)
        assert homology._facet_key(generators, (1, 1, 1, 0, 0)) == (0b001, 0b100)
        assert homology._facet_key(generators, (0, 0, 0, 1, 1)) == (0b01, 0b10)
        monkeypatch.setattr(
            homology, "lcm_lattice", lambda ideal: sorted(lcm_lattice(ideal), reverse=True)
        )
        collapsed, strong_core = [], homology._strong_core

        def recording(facets):
            collapsed.append(tuple(facets))
            return strong_core(facets)

        monkeypatch.setattr(homology, "_strong_core", recording)
        table = multigraded_betti(ideal)
        assert (0b001, 0b100) in collapsed and (0b01, 0b10) not in collapsed
        assert len(reduced_sizes) == 3
        assert table == lattice_table(ideal, FieldSpec())


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
