from itertools import combinations

import pytest

from crownbetti import (
    BettiTable,
    FieldSpec,
    colon_by_monomial,
    crown,
    crown_splitting,
    edge_ideal,
    ideal_intersect,
    induced_subgraph,
    mapping_cone_upper_bound,
    minimalize,
    multigraded_betti,
    total_betti_closed_form,
)
from crownbetti import checks, splitting
from crownbetti.multidegree import lcm_of


class TestRestriction:
    def test_sees_subgraph_entries_above_full_pdim(self, monkeypatch):
        # the first induced subgraph table gains an entry two indices above
        # pdim(I); the full table has nothing there, so the check must fail
        pdim = multigraded_betti(edge_ideal(crown(3, (1, 1, 1)))).pdim()
        calls = []

        def faulty(ideal, field=FieldSpec()):
            table = multigraded_betti(ideal, field)
            calls.append(ideal)
            if len(calls) == 2:
                extra = (pdim + 2, lcm_of(ideal.generators))
                table = BettiTable(table.variables, {**table.entries, extra: 1})
            return table

        monkeypatch.setattr(checks, "multigraded_betti", faulty)
        failures = checks.check_restriction(3, (1, 1, 1))
        assert len(failures) == 1
        assert failures[0].startswith("W=['x1', 'y2'] beta_(5, ")
        assert failures[0].endswith("subgraph=1 full=0")


class TestInducedSubgraphWalk:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_each_subgraph_ideal_is_the_edge_ideal_of_g_w(self, monkeypatch, n):
        # the generators whose support lies in W generate I(G[W]): the walk
        # hands the oracle the full ideal, then, in its order over W, the
        # edge ideal of every induced subgraph that has an edge
        weights = tuple(range(1, n + 1))
        graph = crown(n, weights)
        calls = []

        def recording(ideal, field=FieldSpec()):
            calls.append(ideal)
            return multigraded_betti(ideal, field)

        monkeypatch.setattr(checks, "multigraded_betti", recording)
        assert checks.check_induced_subgraphs(n, weights) == ([], [])
        names = graph.vertices.names
        subgraphs = (
            edge_ideal(induced_subgraph(graph, window))
            for size in range(len(names) + 1)
            for window in combinations(names, size)
        )
        assert calls == [edge_ideal(graph)] + [sub for sub in subgraphs if not sub.is_zero()]

    @pytest.mark.parametrize("weights", [(1, 1, 1), (2, 1, 3)])
    def test_builds_one_edge_ideal(self, monkeypatch, weights):
        built = []

        def counting(graph):
            built.append(graph)
            return edge_ideal(graph)

        monkeypatch.setattr(checks, "edge_ideal", counting)
        assert checks.check_induced_subgraphs(3, weights) == ([], [])
        assert built == [crown(3, weights)]


# the support-implication failures, read alone and as the walk's second list
SUPPORT_READS = {
    "alone": checks.check_support_implication,
    "walk": lambda *args: checks.check_induced_subgraphs(*args)[1],
}


class TestSupportImplication:
    @staticmethod
    def plant(monkeypatch, change):
        # only the first, full-table call is faulty: each subgraph table is
        # recomputed, so the check must not read its pdim off the full table
        calls = []

        def faulty(ideal, field=FieldSpec()):
            table = multigraded_betti(ideal, field)
            calls.append(ideal)
            if len(calls) == 1:
                table = BettiTable(table.variables, change(dict(table.entries)))
            return table

        monkeypatch.setattr(checks, "multigraded_betti", faulty)

    @pytest.mark.parametrize("read", SUPPORT_READS.values(), ids=SUPPORT_READS.keys())
    def test_sees_an_entry_moved_one_index_up(self, monkeypatch, read):
        i, a = max(multigraded_betti(edge_ideal(crown(3, (1, 1, 1)))).entries)

        def moved(entries):
            entries[(i + 1, a)] = entries.pop((i, a))
            return entries

        self.plant(monkeypatch, moved)
        assert read(3, (1, 1, 1)) == [
            f"beta_({i + 1}, {a}) nonzero but pdim(I(G[supp])) = {i}"
        ]

    @pytest.mark.parametrize("read", SUPPORT_READS.values(), ids=SUPPORT_READS.keys())
    def test_sees_an_entry_on_an_edgeless_support(self, monkeypatch, read):
        def added(entries):
            x1 = next(iter(entries))[1].variables.variable("x1")
            return {**entries, (0, x1): 1}

        self.plant(monkeypatch, added)
        assert read(3, (1, 1, 1)) == ["beta_(0, x1) nonzero but G[supp] is edgeless"]

    def test_passes_on_the_walk_restriction_reads(self, monkeypatch):
        calls = []

        def counting(ideal, field=FieldSpec()):
            calls.append(ideal)
            return multigraded_betti(ideal, field)

        monkeypatch.setattr(checks, "multigraded_betti", counting)
        assert checks.check_restriction(3, (2, 1, 3)) == []
        walk = len(calls)
        # no subgraph table of its own: the same oracle calls, in the same order
        assert checks.check_support_implication(3, (2, 1, 3)) == []
        assert calls[walk:] == calls[:walk]


class TestFormulaVsOracle:
    def test_passes_on_crown4(self):
        assert checks.check_formula_vs_oracle(4, (1, 2, 1, 3)) == []

    def test_sees_a_dropped_top_index_in_the_totals(self, monkeypatch):
        # the oracle loses its top index 2n - 3 = 5: its own total sequence
        # stops at 4, so the totals are compared up to the closed form's 5
        orbits = checks._orbits

        def dropped(ideal, lattice, field):
            for point, exps, size, ranks in orbits(ideal, lattice, field):
                yield point, exps, size, {d: r for d, r in ranks.items() if d + 1 != 5}

        monkeypatch.setattr(checks, "_orbits", dropped)
        assert checks.check_formula_vs_oracle(4, (1, 1, 1, 1)) == [
            "beta_(5, x1*x2*x3*x4*y1*y2*y3*y4) oracle=- formula=3",
            "entry count oracle=116 formula=117",
            "totals oracle=[12, 30, 38, 32, 16, 0] closed form=[12, 30, 38, 32, 16, 3]",
            "alternating sum 1 - b0 + b1 - ... = -3, expected 0",
        ]

    def test_builds_no_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a table was built")

        monkeypatch.setattr(BettiTable, "__init__", refuse)
        for w in checks.default_weight_matrix(5):
            assert checks.check_formula_vs_oracle(5, w) == []


class TestOrbitComparison:
    # each planted fault makes the orbit-by-orbit comparison fail

    SHAPE, WEIGHTS = (4, 4, 4), (1, 2, 1, 3)

    def compare(self):
        return checks._orbit_comparison(self.SHAPE, self.WEIGHTS, FieldSpec())[0]

    def test_passes_on_the_shapes_of_the_families(self):
        for shape, weights in [
            ((4, 4, 4), (1, 2, 1, 3)), ((3, 4, 3), (2, 1, 1)),
            ((2, 4, 3), (1, 10**9, 1)), ((0, 2, 3), (1, 2, 3)),
        ]:
            assert checks._orbit_comparison(shape, weights, FieldSpec())[0] == []

    def test_sees_a_swapped_orbit_counted_once(self, monkeypatch):
        # sizes that forget the side swap: each point agrees, and the table
        # itself, expanded by the group, is still right; only the entry
        # count sees it
        from crownbetti import ideals
        from crownbetti.formulas import shape_betti_formula

        sizes = ideals._Lattice.sizes

        def undoubled(lattice, points):
            swap, lattice.swap = lattice.swap, None
            try:
                return sizes(lattice, points)
            finally:
                lattice.swap = swap

        monkeypatch.setattr(ideals._Lattice, "sizes", undoubled)
        failures = self.compare()
        assert len(failures) == 1
        assert failures[0].startswith("entry count oracle=")
        assert failures[0].endswith(" formula=117")
        ideal = edge_ideal(crown(4, self.WEIGHTS))
        assert multigraded_betti(ideal) == shape_betti_formula(*self.SHAPE, self.WEIGHTS)

    def test_sees_one_more_h1(self, monkeypatch):
        from crownbetti import homology

        ranks = homology._ranks

        def more(masks, field):
            found = ranks(masks, field)
            return {**found, 1: found.get(1, 0) + 1}

        monkeypatch.setattr(homology, "_ranks", more)
        # the fault reaches the oracle's ranks at any index: a core may be
        # reduced through its Alexander dual
        failures = self.compare()
        assert failures and failures[0].startswith("beta_(")

    def test_sees_a_top_entry_one_too_large(self, monkeypatch):
        from crownbetti import formulas

        top = formulas._top_entry

        def larger(pairs, size):
            i, value = top(pairs, size)
            return i, value + (pairs >= 2)

        monkeypatch.setattr(formulas, "_top_entry", larger)
        # every entry stays where it was: the points see it, the count cannot
        failures = self.compare()
        assert failures and all(line.startswith("beta_(") for line in failures)
        assert failures[0] == "beta_(5, x1*x2*x3*x4*y1*y2^2*y3*y4^3) oracle=3 formula=4"

    def test_sees_an_entry_for_one_missing_pair(self, monkeypatch):
        from crownbetti import formulas

        def admitting(pairs, size, sides):
            return formulas._top_entry(pairs, size) if sides == 3 else None

        monkeypatch.setattr(formulas, "_selection_entry", admitting)
        # the two orbits of selections with one missing pair and no isolated
        # vertex, each at its canonical point: a zero entry is an entry, and
        # the oracle, which lists none there, reads "-"
        assert self.compare() == [
            "beta_(1, x1*x3*y1*y2^2) oracle=- formula=0",
            "beta_(2, x1*x3*x4*y1*y2^2) oracle=- formula=0",
        ]


class TestCrownSplittingCheck:
    def test_passes_with_each_table_computed_once(self, monkeypatch):
        ideals = []

        def counting(ideal, field=FieldSpec()):
            ideals.append(ideal)
            return multigraded_betti(ideal, field)

        monkeypatch.setattr(splitting, "multigraded_betti", counting)
        assert checks.check_crown_splitting(4, (1, 2, 1, 3)) == []
        assert len(ideals) == 4

    def test_failed_precondition_is_a_failure_line(self, monkeypatch):
        def dropped(n, weights):
            j_part, k_part = crown_splitting(n, weights)
            return j_part, minimalize(k_part.variables, k_part.generators[1:])

        monkeypatch.setattr(checks, "crown_splitting", dropped)
        assert checks.check_crown_splitting(3, (1, 1, 1)) == [
            "splitting of I_3: G(I) must be the disjoint union of G(J) and G(K)"
        ]

    def test_a_split_with_an_empty_part_passes(self, monkeypatch):
        # J holds every generator and K none: a Betti splitting trivially
        def whole(n, weights):
            j_part, k_part = crown_splitting(n, weights)
            everything = minimalize(j_part.variables, j_part.generators + k_part.generators)
            return everything, minimalize(k_part.variables, ())

        monkeypatch.setattr(checks, "crown_splitting", whole)
        assert checks.check_crown_splitting(3, (1, 1, 1)) == []

    def test_broken_invariant_is_raised(self, monkeypatch):
        # crown n = 3 read as the pairs x1 y1 and x2 y2 with x3 and y3
        # unmatched, with a planted side swap that keeps x3 and y3: a fault
        # of the oracle, not a failed splitting
        from crownbetti import ideals

        monkeypatch.setattr(ideals, "_block_classes", lambda edges: [[(0, 3), (1, 4)], [(2, 2)], [(5, 5)]])
        monkeypatch.setattr(ideals, "_side_swap", lambda classes: [0, 1, 2])
        with pytest.raises(ValueError, match="^the side swap does not map") as raised:
            checks.check_crown_splitting(3, (1, 1, 1))
        assert not isinstance(raised.value, ideals._PastCap)

    def test_a_table_past_the_cap_is_raised(self, monkeypatch):
        from crownbetti import ideals

        monkeypatch.setattr(ideals, "MAX_LISTED_ENTRIES", 10)
        with pytest.raises(ideals._PastCap):
            checks.check_crown_splitting(4, (1, 2, 1, 3))


class TestBinomialIdentity:
    @pytest.mark.parametrize("n_max", [1, 0, -5])
    def test_an_empty_range_is_refused(self, n_max):
        with pytest.raises(ValueError, match=f"^the identity check needs n_max >= 2, got {n_max}$"):
            checks.check_binomial_identity(n_max)


class TestColonChain:
    def test_passes_on_every_default_row(self):
        for n in range(2, 8):
            for w in checks.default_weight_matrix(n):
                assert checks.check_colon_chain(n, w) == []

    def test_sees_a_dropped_colon_generator(self, monkeypatch):
        def dropped(ideal, m):
            colon = colon_by_monomial(ideal, m)
            return minimalize(colon.variables, colon.generators[1:])

        monkeypatch.setattr(checks, "colon_by_monomial", dropped)
        failures = checks.check_colon_chain(3, (1, 2, 1))
        assert len(failures) == 2
        assert failures[0].startswith("Q_0 : ")

    def test_sees_a_wrong_intersection(self, monkeypatch):
        def dropped(a, b):
            meet = ideal_intersect(a, b)
            return minimalize(meet.variables, meet.generators[1:])

        monkeypatch.setattr(checks, "ideal_intersect", dropped)
        failures = checks.check_colon_chain(3, (1, 2, 1))
        assert len(failures) == 1
        assert failures[0].startswith("J ∩ K = ") and " expected y3 * (" in failures[0]

    def test_sees_a_bound_below_the_totals(self, monkeypatch):
        def short(n, i):
            return mapping_cone_upper_bound(n, i) - (i == 2) * 10**6

        monkeypatch.setattr(checks, "mapping_cone_upper_bound", short)
        failures = checks.check_colon_chain(4, (1, 1, 1, 1))
        assert len(failures) == 1
        assert failures[0].endswith(f"< closed-form beta_2 = {total_betti_closed_form(4, 2)}")

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="crown graph needs n >= 2"):
            checks.check_colon_chain(1, (1,))
