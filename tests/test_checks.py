import pytest

from crownbetti import (
    BettiTable,
    FieldSpec,
    colon_by_monomial,
    crown,
    crown_splitting,
    edge_ideal,
    ideal_intersect,
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
