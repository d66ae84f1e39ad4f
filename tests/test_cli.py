import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crownbetti import (
    BettiTable,
    checks,
    crown,
    edge_ideal,
    multigraded_betti,
    multigraded_betti_formula,
    report_text,
    shape_betti_formula,
    table_from_json_dict,
    total_betti_closed_form,
    xy_variables,
)
from crownbetti.cli import EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line itself
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_loads_no_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, crownbetti.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "False"


class TestCrownCommand:
    def test_formula_text_report(self, capsys):
        code, out, err = run(capsys, "crown", "--n", "3", "--mode", "formula")
        assert code == EXIT_OK and err == ""
        assert "pdim: 3" in out
        assert "reg: 3" in out
        assert "total: 6 9 6 2" in out

    def test_both_mode_agrees(self, capsys):
        code, out, _ = run(capsys, "crown", "--n", "3", "--weights", "2,1,3")
        assert code == EXIT_OK
        assert "pdim: 3" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "crown", "--n", "3", "--weights", "1,2,1", "--output", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        table = table_from_json_dict(data, xy_variables(3))
        assert table == multigraded_betti_formula(3, (1, 2, 1))
        assert data["pdim"] == 3
        assert data["reg"] == 4

    def test_repeated_runs_are_identical(self, capsys):
        argv = ("crown", "--n", "3", "--output", "json", "--multigraded")
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    def test_raw_graded_triples(self, capsys):
        code, out, _ = run(capsys, "crown", "--n", "2", "--mode", "formula", "--raw")
        assert code == EXIT_OK
        assert "0 2 2" in out
        assert "1 4 1" in out

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_formula_text_matches_table_report(self, capsys, n):
        for w in checks.default_weight_matrix(n):
            table = multigraded_betti_formula(n, w)
            argv = ("crown", "--n", str(n), "--weights", ",".join(map(str, w)), "--mode", "formula")
            for raw in (False, True):
                code, out, err = run(capsys, *argv, *(("--raw",) if raw else ()))
                assert (code, out, err) == (EXIT_OK, report_text(table, raw=raw), "")

    def test_formula_text_lists_no_entry(self, capsys, monkeypatch):
        import crownbetti.cli as cli_module
        import crownbetti.formulas as formulas_module

        def refuse(*args):
            raise AssertionError("the text report should not enumerate selections")

        for module, name in [
            (formulas_module, "enumerate_N"),
            (formulas_module, "enumerate_M"),
            (cli_module, "multigraded_betti_formula"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        for extra in ((), ("--raw",)):
            code, out, _ = run(capsys, "crown", "--n", "7", "--mode", "formula", *extra)
            assert code == EXIT_OK and out.startswith("pdim: 11\n")

    def test_formula_text_at_n30(self, capsys):
        code, out, _ = run(capsys, "crown", "--n", "30", "--mode", "formula")
        assert code == EXIT_OK
        total = next(line for line in out.splitlines() if line.startswith("total: "))
        assert total.split()[1:] == [str(total_betti_closed_form(30, i)) for i in range(58)]

    def test_multigraded_listing(self, capsys):
        code, out, _ = run(
            capsys, "crown", "--n", "2", "--mode", "formula", "--multigraded"
        )
        assert code == EXIT_OK
        assert "x1*x2*y1*y2" in out

    def test_audit_full_lattice(self, capsys):
        code, out, _ = run(
            capsys, "crown", "--n", "2", "--mode", "oracle", "--audit-full-lattice"
        )
        assert code == EXIT_OK
        assert "pdim: 1" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("crown", "--n", "1"),
            ("crown", "--n", "3", "--weights", "1,2"),
            ("crown", "--n", "3", "--weights", "1,x,2"),
            ("crown", "--n", "3", "--weights", "1,0,2"),
            ("crown", "--n", "2", "--field", "4"),
            ("crown", "--n", "2", "--field", "18446744073709551629"),
            ("crown", "--n", "3", "--mode", "formula", "--audit-full-lattice"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error:")

    def test_large_prime_field(self, capsys):
        code, out, err = run(
            capsys, "crown", "--n", "3", "--field", "1000000000000000003", "--mode", "both"
        )
        assert code == EXIT_OK and err == ""
        assert "total: 6 9 6 2" in out

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        # perturb the formula route so the oracle comparison must fail
        import crownbetti.cli as cli_module

        def broken(n, weights):
            table = multigraded_betti_formula(n, weights)
            entries = dict(table.entries)
            key, value = min(entries.items())
            entries[key] = value + 1
            return BettiTable(table.variables, entries)

        monkeypatch.setattr(cli_module, "multigraded_betti_formula", broken)
        code, _, err = run(capsys, "crown", "--n", "2", "--mode", "both")
        assert code == EXIT_MISMATCH
        assert "mismatch at beta_(" in err


class TestGraphCommand:
    @staticmethod
    def write_doc(tmp_path, payload, name="graph.json"):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_crown3_document_matches_crown_command(self, capsys, tmp_path):
        graph = crown(3, (1, 2, 1))
        doc = {
            "vertices": list(graph.vertices.names),
            "edges": [list(e) for e in sorted(graph.edges)],
            "weights": {"y1": 1, "y2": 2, "y3": 1},
        }
        path = self.write_doc(tmp_path, doc)
        from_doc = run(capsys, "graph", path, "--output", "json")
        from_crown = run(
            capsys,
            "crown", "--n", "3", "--weights", "1,2,1",
            "--mode", "oracle", "--output", "json",
        )
        assert from_doc == from_crown

    def test_weights_default_to_one(self, capsys, tmp_path):
        path = self.write_doc(
            tmp_path, {"vertices": ["a", "b"], "edges": [["a", "b"]]}
        )
        code, out, _ = run(capsys, "graph", path, "--output", "json")
        assert code == EXIT_OK
        assert json.loads(out)["graded"] == [[0, 2, 1]]

    def test_parse_error_reports_position(self, capsys, tmp_path):
        path = self.write_doc(tmp_path, '{"vertices": [,]}')
        code, _, err = run(capsys, "graph", path)
        assert code == EXIT_USAGE
        assert "line 1" in err and "column" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "graph", str(tmp_path / "absent.json"))
        assert code == EXIT_USAGE
        assert "cannot read" in err

    def test_edgeless_document_rejected(self, capsys, tmp_path):
        path = self.write_doc(tmp_path, {"vertices": ["a", "b"], "edges": []})
        code, _, err = run(capsys, "graph", path)
        assert code == EXIT_USAGE
        assert "no edges" in err

    @pytest.mark.parametrize(
        "payload",
        [
            "[1, 2]",
            {"edges": [["a", "b"]]},
            {"vertices": ["a"], "edges": [["a", "a"]]},
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": ["b", 2]},
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"b": 0}},
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"b": None}},
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"b": 2.7}},
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"b": True}},
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"b": "3"}},
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"c": 2}},
            {"vertices": "ab", "edges": [["a", "b"]]},
            {"vertices": ["a", "b"], "edges": ["ab"]},
            {"vertices": [None, 1], "edges": [[None, 1]], "weights": {"1": 2}},
            {"vertices": [1, 2], "edges": [[1, 2]]},
            {"vertices": [1.5, "b"], "edges": [[1.5, "b"]]},
            {"vertices": ["1", "2"], "edges": [[1, 2]]},
            {"vertices": ["a", "b"], "edges": [["a", "b"]], "weigths": {"b": 5}},
            {"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]},
        ],
    )
    def test_malformed_documents_rejected(self, capsys, tmp_path, payload):
        path = self.write_doc(tmp_path, payload)
        code, _, err = run(capsys, "graph", path)
        assert code == EXIT_USAGE
        assert err.startswith("error:")


class TestFamilyCommand:
    def test_crown_top_data(self, capsys):
        code, out, _ = run(capsys, "family", "crown", "--params", "3")
        assert code == EXIT_OK
        assert "pdim: 3" in out
        assert "top value: 2" in out

    def test_generalized_with_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            "family", "generalized", "--params", "2,3,3",
            "--weights", "2,1,3", "--oracle",
        )
        assert code == EXIT_OK
        assert "table check: pass" in out
        assert "top value: 1" in out  # m - 1

    def test_complete_bipartite_with_oracle(self, capsys):
        code, out, _ = run(
            capsys,
            "family", "complete-bipartite", "--params", "2,3",
            "--weights", "1,2,1", "--oracle",
        )
        assert code == EXIT_OK
        assert "pdim: 3" in out
        assert "table check: pass" in out

    def test_table_mismatch_exit_code(self, capsys, monkeypatch):
        # perturb the shape formula so the whole-table comparison must fail
        import crownbetti.cli as cli_module

        def broken(m, s, t, weights):
            table = shape_betti_formula(m, s, t, weights)
            entries = dict(table.entries)
            key, value = max(entries.items())
            entries[key] = value + 1
            return BettiTable(table.variables, entries)

        monkeypatch.setattr(cli_module, "shape_betti_formula", broken)
        code, out, err = run(capsys, "family", "unbalanced", "--params", "4,3", "--oracle")
        assert code == EXIT_MISMATCH
        assert "table check: FAIL" in out
        assert "mismatch at beta_(" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("family", "crown", "--params", "3,4"),
            ("family", "unbalanced", "--params", "2,2"),
            ("family", "generalized", "--params", "3,4,3"),
            ("family", "crown", "--params", "a"),
            ("family", "crown", "--params", "3", "--output", "json"),
            ("family", "crown", "--params", "3", "--audit-full-lattice"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        # argparse reports an option family does not take after its usage line
        last = err.splitlines()[-1]
        assert last.startswith(("error:", "crownbetti: error: unrecognized arguments:"))


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2..3")
        assert code == EXIT_OK
        assert "FAIL" not in out
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["failures"] == 0
        assert summary["checks"] > 0

    def test_explicit_weight_matrix(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--weights", "1,1,1;2,1,3")
        assert code == EXIT_OK
        assert "PASS formula-vs-oracle n=3 w=2,1,3" in out

    def test_identity_only(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "--n-max", "10")
        assert code == EXIT_OK
        assert "PASS binomial-identity n<=10" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--n", "5..7"),
            ("verify", "--n", "1..3"),
            ("verify", "--n", "junk"),
            ("verify", "--n", "5..3"),
            ("verify", "--identity", "--n-max", "-3"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error:")


class TestJsonSchema:
    def test_oracle_json_matches_library_tables(self, capsys):
        code, out, _ = run(
            capsys,
            "crown", "--n", "3", "--weights", "2,1,1",
            "--mode", "oracle", "--output", "json",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        table = multigraded_betti(edge_ideal(crown(3, (2, 1, 1))))
        assert data["total"] == table.total_sequence()
        assert table_from_json_dict(data, xy_variables(3)) == table
