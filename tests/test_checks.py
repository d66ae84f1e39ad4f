from crownbetti import (
    BettiTable,
    FieldSpec,
    crown,
    crown_splitting,
    edge_ideal,
    minimalize,
    multigraded_betti,
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
