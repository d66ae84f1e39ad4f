import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from crownbetti import (
    BettiTable,
    FieldSpec,
    Multidegree,
    VariableSet,
    checks,
    crown,
    edge_ideal,
    multigraded_betti,
    multigraded_betti_formula,
    report_text,
    shape_betti_formula,
    table_from_json_dict,
    table_to_json_dict,
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


def _import_cli_and_list(modules):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = f"import sys, crownbetti.cli; print(sorted({set(modules)!r} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return out.stdout.strip()


def test_cli_import_loads_no_numpy():
    assert _import_cli_and_list({"numpy"}) == "[]"


def test_cli_import_compiles_no_checks():
    # only verify runs the checks, so the other commands never compile them
    assert _import_cli_and_list({"crownbetti.checks"}) == "[]"


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
            (cli_module, "shape_betti_formula"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        for extra in ((), ("--raw",)):
            code, out, _ = run(capsys, "crown", "--n", "7", "--mode", "formula", *extra)
            assert code == EXIT_OK and out.startswith("pdim: 11\n")

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_formula_listing_matches_table_reports(self, capsys, n):
        # the listing writes its rows without a table; n = 7 has 11,026 rows,
        # so its JSON document is written in several slices
        rows = checks.default_weight_matrix(n) + [(10**9,) + (1,) * (n - 1)]
        for w in rows:
            table = multigraded_betti_formula(n, w)
            argv = ("crown", "--n", str(n), "--weights", ",".join(map(str, w)), "--mode", "formula")
            expected = json.dumps(table_to_json_dict(table), sort_keys=True) + "\n"
            assert run(capsys, *argv, "--output", "json") == (EXIT_OK, expected, "")
            for raw in ((), ("--raw",)):
                expected = report_text(table, multigraded=True, raw=bool(raw))
                assert run(capsys, *argv, "--multigraded", *raw) == (EXIT_OK, expected, "")

    def test_formula_listing_builds_no_table(self, capsys, monkeypatch):
        import crownbetti.cli as cli_module
        import crownbetti.formulas as formulas_module

        argv = ("crown", "--n", "5", "--weights", "1,2,3,1,2", "--mode", "formula")
        table = multigraded_betti_formula(5, (1, 2, 3, 1, 2))
        expected = {
            ("--output", "json"): json.dumps(table_to_json_dict(table), sort_keys=True) + "\n",
            ("--multigraded",): report_text(table, multigraded=True),
            ("--multigraded", "--raw"): report_text(table, multigraded=True, raw=True),
        }

        def refuse(*args, **kwargs):
            raise AssertionError("the listing built or summed a table")

        monkeypatch.setattr(cli_module, "shape_betti_formula", refuse)
        monkeypatch.setattr(formulas_module, "BettiTable", refuse)
        monkeypatch.setattr(BettiTable, "graded", refuse)
        # the rows are written from their exponent tuples: no monomial is built
        monkeypatch.setattr(Multidegree, "__init__", refuse)
        for extra, out in expected.items():
            assert run(capsys, *argv, *extra) == (EXIT_OK, out, "")

    def test_json_listing_streams_its_rows(self, monkeypatch):
        # the rows are written a chunk at a time as they come: no write
        # waits on more than one chunk beyond the rows written before it
        import crownbetti.cli as cli_module
        from crownbetti.render import _CHUNK

        weights = (1, 3, 1, 2, 1, 2, 2)
        expected = json.dumps(table_to_json_dict(multigraded_betti_formula(7, weights)),
                              sort_keys=True) + "\n"
        pulled, rows = [0], cli_module._formula_rows

        def counting(*args):
            for row in rows(*args):
                pulled[0] += 1
                yield row

        class Recorder(io.StringIO):
            def write(self, text):
                if text:
                    seen.append(pulled[0])
                return super().write(text)

        seen, out = [], Recorder()
        monkeypatch.setattr(cli_module, "_formula_rows", counting)
        monkeypatch.setattr(sys, "stdout", out)
        argv = ["crown", "--n", "7", "--weights", "1,3,1,2,1,2,2", "--mode", "formula"]
        assert main(argv + ["--output", "json"]) == EXIT_OK
        assert out.getvalue() == expected
        assert pulled[0] == 11026 and len(seen) == 5
        assert all(p <= k * _CHUNK for k, p in enumerate(seen)), seen

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

    @pytest.mark.parametrize(
        "extra",
        [("--mode", "formula", "--output", "json"), ("--mode", "formula", "--multigraded"),
         ("--mode", "both"), ("--mode", "oracle")],
    )
    def test_listing_over_the_cap_exits_at_once(self, capsys, monkeypatch, extra):
        # n = 11 has 3,540,670 entries: the count refuses before any listing
        from crownbetti import cli as cli_module

        def refuse(*args, **kwargs):
            raise AssertionError("the table was listed or computed")

        monkeypatch.setattr(cli_module, "shape_betti_formula", refuse)
        monkeypatch.setattr(cli_module, "_formula_rows", refuse)
        monkeypatch.setattr(cli_module, "multigraded_betti", refuse)
        code, out, err = run(capsys, "crown", "--n", "11", *extra)
        assert code == EXIT_USAGE and out == ""
        assert "3540670" in err and "cap" in err
        assert err.endswith("; --mode formula without --output json or --multigraded "
                            "counts the graded numbers instead\n")

    def test_audit_full_lattice_is_refused(self, capsys):
        # no command sweeps the full box: the flag is an unknown argument
        for mode in ("oracle", "formula"):
            code, out, err = run(
                capsys, "crown", "--n", "2", "--mode", mode, "--audit-full-lattice"
            )
            assert code == EXIT_USAGE and out == ""
            assert "unrecognized arguments: --audit-full-lattice" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("crown", "--n", "1"),
            ("crown", "--n", "3", "--weights", "1,2"),
            ("crown", "--n", "3", "--weights", "1,x,2"),
            ("crown", "--n", "3", "--weights", "1,0,2"),
            ("crown", "--n", "2", "--field", "4"),
            ("crown", "--n", "2", "--field", "18446744073709551629"),
            ("crown", "--n", "3", "--mode", "formula", "--field", "2"),
            ("crown", "--n", "3", "--output", "json", "--raw"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
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

        def broken(m, s, t, weights):
            table = shape_betti_formula(m, s, t, weights)
            entries = dict(table.entries)
            key, value = min(entries.items())
            entries[key] = value + 1
            return BettiTable(table.variables, entries)

        monkeypatch.setattr(cli_module, "shape_betti_formula", broken)
        code, out, err = run(capsys, "crown", "--n", "2", "--mode", "both")
        assert code == EXIT_MISMATCH and out == ""
        assert "mismatch at beta_(" in err


class TestGraphCommand:
    @staticmethod
    def write_doc(tmp_path, payload, name="graph.json"):
        path = tmp_path / name
        if isinstance(payload, bytes):
            path.write_bytes(payload)
        else:
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

    def test_raw_with_json_output_exits_2(self, capsys, tmp_path):
        # --raw shapes the text report only; JSON output does not take it
        path = self.write_doc(tmp_path, {"vertices": ["a", "b"], "edges": [["a", "b"]]})
        code, out, err = run(capsys, "graph", path, "--output", "json", "--raw")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error:")

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
            '{"vertices": ["a", "b"], "edges": [["a", "b"]], "edges": [["b", "a"]]}',
            '{"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"b": 1, "b": 3}}',
            pytest.param(b"\xff\xfe{", id="not-utf8"),
            pytest.param("[" * 200000 + "]" * 200000, id="nested-200000-deep"),
            pytest.param(
                '{"vertices": ["a", "b"], "edges": [["a", "b"]], "weights": {"b": 1%s}}'
                % ("0" * 5000),
                id="weight-of-5001-digits",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python converts integer strings of any length",
                ),
            ),
        ],
    )
    def test_malformed_documents_rejected(self, capsys, tmp_path, payload):
        path = self.write_doc(tmp_path, payload)
        code, out, err = run(capsys, "graph", path)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize(
        "payload,message",
        [
            (
                {
                    "vertices": ["a", "b", "c"],
                    "edges": [["a", "b"], ["b", "c"], ["c", "a"], ["b", "c"], ["a", "b"]],
                },
                "edge ['b', 'c'] is listed more than once",
            ),
            (
                '{"vertices": ["a", "b"], "edges": [["a", "b"]], '
                '"weights": {"a": 1, "b": 1, "c": 1, "b": 2, "a": 2}}',
                "key 'b' is given more than once",
            ),
        ],
    )
    def test_repeat_message_names_the_first_repeat(self, capsys, tmp_path, payload, message):
        # the first item that repeats an earlier one, not the first one repeated
        path = self.write_doc(tmp_path, payload)
        code, out, err = run(capsys, "graph", path)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.fixture
    def lattice_calls(self, monkeypatch):
        """The ideals each run hands to the plain lattice path."""
        from crownbetti import homology

        calls, lattice = [], homology.lcm_lattice

        def spy(ideal):
            calls.append(ideal)
            return lattice(ideal)

        monkeypatch.setattr(homology, "lcm_lattice", spy)
        return calls

    @staticmethod
    def plain_run(capsys, monkeypatch, *argv):
        """The command's result with every ideal sent down the lattice path."""
        from crownbetti import ideals

        with monkeypatch.context() as patch:
            patch.setattr(ideals, "_block_classes", lambda edges: None)
            return run(capsys, *argv)

    def test_relabelled_reversed_crown_takes_the_orbit_path(
        self, capsys, monkeypatch, tmp_path, lattice_calls
    ):
        # crown n = 5 on the labels a1..a5, b1..b5 in shuffled order, every
        # edge b_j -> a_i (i != j) and the weights on the a side: the edge
        # ideal is the crown's pattern with its levels on the heads
        vertices = ["b3", "a2", "a5", "b1", "a4", "b5", "a1", "b2", "b4", "a3"]
        doc = {
            "vertices": vertices,
            "edges": [[f"b{j}", f"a{i}"] for i in range(1, 6) for j in range(1, 6) if i != j],
            "weights": {"a1": 3, "a2": 1, "a4": 2, "a5": 10**9},
        }
        path = self.write_doc(tmp_path, doc)
        for extra in (("--output", "json"), ("--multigraded",)):
            orbit = run(capsys, "graph", path, *extra)
            assert lattice_calls == []
            plain = self.plain_run(capsys, monkeypatch, "graph", path, *extra)
            assert len(lattice_calls) == 1
            lattice_calls.clear()
            assert orbit == plain and orbit[0] == EXIT_OK

    def test_weight_on_a_head_and_tail_takes_the_lattice_path(
        self, capsys, tmp_path, lattice_calls
    ):
        # y2 (weight 2) is the head of x_i -> y2 and the tail of y2 -> x1:
        # it takes two levels, 2 and 1, so the ideal is no rescaled pattern
        edges = [[f"x{i}", f"y{j}"] for i in range(1, 5) for j in range(1, 5) if i != j]
        edges[edges.index(["x1", "y2"])] = ["y2", "x1"]
        doc = {"vertices": list(xy_variables(4).names), "edges": edges, "weights": {"y2": 2}}
        code, out, _ = run(capsys, "graph", self.write_doc(tmp_path, doc), "--output", "json")
        assert code == EXIT_OK and len(lattice_calls) == 1

    def test_lattice_past_the_cap_exits_2(self, capsys, monkeypatch, tmp_path):
        # five disjoint edges have 31 lattice points, and the crown n = 3
        # table, on the orbit path, has 22 entries: the running count stops
        # at the first orbit that takes it past the cap
        from crownbetti import ideals

        monkeypatch.setattr(ideals, "MAX_LISTED_ENTRIES", 14)
        names = [f"v{k}" for k in range(10)]
        disjoint = {"vertices": names, "edges": [names[k:k + 2] for k in range(0, 10, 2)]}
        graph = crown(3, (1, 1, 1))
        crown3 = {"vertices": list(graph.vertices.names), "edges": [list(e) for e in graph.edges]}
        for doc, message in (
            (disjoint, "error: the lcm lattice passes the cap of 14 points\n"),
            (crown3, "error: the table passes the cap of 14 multigraded entries\n"),
        ):
            path = self.write_doc(tmp_path, doc)
            assert run(capsys, "graph", path) == (EXIT_USAGE, "", message)
        monkeypatch.setattr(ideals, "MAX_LISTED_ENTRIES", 31)
        assert run(capsys, "graph", self.write_doc(tmp_path, disjoint))[0] == EXIT_OK

    @pytest.mark.parametrize("label", ["a*c", "", "a^2", "a c", " a", "a\n", "a\u00a0b"])
    def test_ambiguous_labels_rejected(self, capsys, tmp_path, label):
        # with the labels "a*c" and "b" the monomial a*c*b reads as three
        # variables, and the label "" printed the monomial *b
        path = self.write_doc(tmp_path, {"vertices": [label, "b"], "edges": [[label, "b"]]})
        code, out, err = run(capsys, "graph", path, "--multigraded")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith(f"error: {path}: vertex label {label!r} is empty or holds ")


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

        top = run(capsys, "family", "unbalanced", "--params", "4,3")[1]
        monkeypatch.setattr(cli_module, "shape_betti_formula", broken)
        code, out, err = run(capsys, "family", "unbalanced", "--params", "4,3", "--oracle")
        assert code == EXIT_MISMATCH
        # as with crown --mode both, a mismatch prints no table
        assert out == top + "table check: FAIL\n"
        assert "mismatch at beta_(" in err

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_oracle_report_is_the_crown_report(self, capsys, n):
        # family --oracle prints its top lines, crown's report, then its check
        for w in checks.default_weight_matrix(n):
            weights = ",".join(map(str, w))
            top = run(capsys, "family", "crown", "--params", str(n), "--weights", weights)[1]
            for extra in ((), ("--raw",), ("--multigraded",)):
                crown_out = run(
                    capsys, "crown", "--n", str(n), "--weights", weights, "--mode", "both", *extra
                )[1]
                assert run(
                    capsys, "family", "crown", "--params", str(n), "--weights", weights,
                    "--oracle", *extra,
                ) == (EXIT_OK, top + crown_out + "table check: pass\n", "")

    @pytest.mark.parametrize(
        "kind,params,count",
        [("crown", "11", 3540670), ("complete-bipartite", "12,12", 16769025)],
    )
    def test_oracle_over_the_listing_cap_exits_at_once(
        self, capsys, monkeypatch, kind, params, count
    ):
        # the crown's cap refuses the table before any oracle runs or line prints;
        # the message ends at the cap, since family takes no --mode or --output
        from crownbetti import cli as cli_module

        def refuse(*args, **kwargs):
            raise AssertionError("the table was listed or computed")

        monkeypatch.setattr(cli_module, "shape_betti_formula", refuse)
        monkeypatch.setattr(cli_module, "multigraded_betti", refuse)
        code, out, err = run(capsys, "family", kind, "--params", params, "--oracle")
        assert code == EXIT_USAGE and out == ""
        assert err == (
            f"error: the formula table has {count} multigraded entries, above the cap of "
            "1000000\n"
        )

    def test_oracle_far_past_the_listing_cap_exits_within_a_second(self, capsys):
        # the entry count is a closed form; a count longer than str(int) writes
        # is shown by the power of 2 below it
        start = time.perf_counter()
        code, out, err = run(capsys, "family", "crown", "--params", "50000", "--oracle")
        assert time.perf_counter() - start < 1
        assert (code, out) == (EXIT_USAGE, "")
        assert err == (
            "error: the formula table has at least 2^99999 multigraded entries, above the cap "
            "of 1000000\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ("family", "crown", "--params", "3,4"),
            ("family", "unbalanced", "--params", "2,2"),
            ("family", "generalized", "--params", "3,4,3"),
            ("family", "crown", "--params", "a"),
            ("family", "crown", "--params", "3", "--output", "json"),
            ("family", "crown", "--params", "3", "--audit-full-lattice"),
            ("family", "crown", "--params", "3", "--field", "4"),
            ("family", "crown", "--params", "3", "--field", "4", "--oracle"),
            ("family", "crown", "--params", "3", "--raw"),
            ("family", "crown", "--params", "3", "--multigraded"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        # argparse reports an option family does not take after its usage line
        last = err.splitlines()[-1]
        assert last.startswith(("error:", "crownbetti: error: unrecognized arguments:"))

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("family", "crown", "--params", "-1", "--weights", "1"),
             "crown graph needs n >= 2, got -1"),
            (("family", "unbalanced", "--params", "2,5", "--weights", "1,1"),
             "unbalanced crown needs 1 < t < s, got (s, t) = (2, 5)"),
            (("family", "complete-bipartite", "--params", "2", "--weights", "1,1"),
             "family 'complete-bipartite' takes 2 parameter(s)"),
        ],
        ids=["crown", "unbalanced", "arity"],
    )
    def test_params_checked_before_weights(self, capsys, argv, message):
        # the family's rule names the bad params before any weight count is read
        assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")


class TestFieldOption:
    # --field picks the oracle's field: it is refused where no oracle runs,
    # and every oracle path defaults to F_32003

    @pytest.mark.parametrize(
        "argv",
        [
            ("crown", "--n", "3", "--mode", "formula", "--field", "32003"),
            ("crown", "--n", "3", "--mode", "formula", "--output", "json", "--field", "0"),
            ("family", "crown", "--params", "3", "--field", "2"),
            ("family", "unbalanced", "--params", "4,3", "--field", "32003"),
            ("family", "generalized", "--params", "2,4,3", "--field", "0"),
            # the rule is checked before the field itself is parsed
            ("family", "crown", "--params", "3", "--field", "4"),
            ("family", "crown", "--params", "3", "--field", "junk"),
        ],
    )
    def test_field_without_oracle_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: --field sets the oracle's field: ")
        assert err.endswith(" runs no oracle\n")

    @pytest.fixture
    def oracle_fields(self, monkeypatch):
        """The field of every oracle table the command computes."""
        import crownbetti.cli as cli_module

        fields = []

        def recording(ideal, field):
            fields.append(field)
            return multigraded_betti(ideal, field)

        monkeypatch.setattr(cli_module, "multigraded_betti", recording)
        return fields

    @pytest.mark.parametrize(
        "argv",
        [
            ("crown", "--n", "3", "--mode", "oracle"),
            ("crown", "--n", "3", "--mode", "both"),
            ("family", "crown", "--params", "3", "--oracle"),
        ],
    )
    def test_oracle_defaults_to_32003(self, capsys, oracle_fields, argv):
        assert run(capsys, *argv)[0] == EXIT_OK
        assert oracle_fields == [FieldSpec(32003)]

    def test_graph_defaults_to_32003(self, capsys, oracle_fields, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
        assert run(capsys, "graph", str(path))[0] == EXIT_OK
        assert oracle_fields == [FieldSpec(32003)]

    def test_verify_defaults_to_32003(self, capsys, monkeypatch):
        fields = set()

        def recording(n, weights, field):
            fields.add(field)
            return []

        for name in ("check_formula_vs_oracle", "check_crown_splitting", "check_restriction"):
            monkeypatch.setattr(checks, name, recording)
        code, out, _ = run(capsys, "verify", "--n", "3")
        assert code == EXIT_OK and "FAIL" not in out
        assert fields == {FieldSpec(32003)}

    @pytest.mark.parametrize(
        "argv",
        [
            ("crown", "--n", "3", "--mode", "oracle", "--field", "2"),
            ("family", "crown", "--params", "3", "--oracle", "--field", "0"),
            ("verify", "--n", "2", "--field", "3"),
        ],
    )
    def test_field_with_oracle_is_accepted(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_OK and err == ""

    @pytest.mark.parametrize(
        "argv,text",
        [
            (("crown", "--n", "3", "--field", "junk"), "junk"),
            (("family", "crown", "--params", "3", "--oracle", "--field", "2.5"), "2.5"),
            (("verify", "--n", "2", "--field", "junk"), "junk"),
        ],
    )
    def test_non_integer_field_exits_2(self, capsys, argv, text):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: field must be an integer, got '{text}'\n"


class TestVerifyCommand:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2..3")
        assert code == EXIT_OK
        assert "FAIL" not in out
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["failures"] == 0
        assert summary["checks"] > 0
        # the colon chain runs from n = 3, once per weight row
        assert [line for line in out.splitlines() if "colon-chain" in line] == [
            "PASS colon-chain n=3 w=1,1,1",
            "PASS colon-chain n=3 w=2,1,1",
            "PASS colon-chain n=3 w=1,2,3",
        ]

    def test_explicit_weight_matrix(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "3", "--weights", "1,1,1;2,1,3")
        assert code == EXIT_OK
        assert "PASS formula-vs-oracle n=3 w=2,1,3" in out

    def test_n_max_bounds_the_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "--n", "2", "--n-max", "14")
        assert code == EXIT_OK
        assert out.splitlines()[-2] == "PASS binomial-identity n<=14"

    def test_identity_flag_is_gone(self, capsys):
        # the identity ends every sweep; there is no identity-only mode
        code, out, err = run(capsys, "verify", "--identity")
        assert code == EXIT_USAGE and out == ""
        assert "unrecognized arguments: --identity" in err

    def test_weight_rows_parsed_before_any_check(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a check ran before every weight row was parsed")

        for name in (
            "check_formula_vs_oracle", "check_crown_splitting", "check_colon_chain",
            "check_restriction", "check_binomial_identity",
        ):
            monkeypatch.setattr(checks, name, refuse)
        code, out, err = run(capsys, "verify", "--n", "2..3", "--weights", "1,1")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: expected 3 weights, got 2\n"

    def test_guard_admits_n7(self, capsys, monkeypatch):
        # the full sweep at n = 7 takes minutes, so every check is stubbed here
        for name in (
            "check_formula_vs_oracle", "check_crown_splitting", "check_colon_chain",
            "check_restriction", "check_binomial_identity",
        ):
            monkeypatch.setattr(checks, name, lambda *args: [])
        code, out, err = run(capsys, "verify", "--n", "7")
        assert code == EXIT_OK and err == ""
        assert "PASS restriction n=7" in out.splitlines()
        assert out.splitlines()[-1] == '{"checks": 11, "failures": 0}'

    @pytest.mark.parametrize("n_max", ["101", "100000000000000000000"])
    def test_n_max_is_guarded(self, capsys, monkeypatch, n_max):
        # the identity check takes seconds at 200, so nothing above 100 runs
        def refuse(*args):
            raise AssertionError("a check ran past the --n-max guard")

        for name in (
            "check_formula_vs_oracle", "check_crown_splitting", "check_colon_chain",
            "check_restriction", "check_binomial_identity",
        ):
            monkeypatch.setattr(checks, name, refuse)
        assert run(capsys, "verify", "--n", "2", "--n-max", n_max) == (
            EXIT_USAGE, "", f"error: the identity check is guarded at --n-max <= 100, got {n_max}\n"
        )

    def test_guard_admits_n_max_100(self, capsys, monkeypatch):
        for name in ("check_formula_vs_oracle", "check_restriction", "check_binomial_identity"):
            monkeypatch.setattr(checks, name, lambda *args: [])
        code, out, err = run(capsys, "verify", "--n", "2", "--n-max", "100")
        assert code == EXIT_OK and err == ""
        assert out.splitlines()[-2] == "PASS binomial-identity n<=100"

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--n", "5..8"),
            ("verify", "--n", "1..3"),
            ("verify", "--n", "junk"),
            ("verify", "--n", "5..3"),
            ("verify", "--n-max", "1"),
            ("verify", "--n", "3..2"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        (("crown", "--n", "3", "--weights", "0,1,1"),
         "weights must be positive integers, got (0, 1, 1)"),
        (("family", "crown", "--params", "3", "--weights", "1,-1,1"),
         "weights must be positive integers, got (1, -1, 1)"),
        (("verify", "--n", "1..3"), "crown graph needs n >= 2, got 1"),
    ],
    ids=["crown-weights", "family-weights", "verify-range"],
)
def test_shape_rule_messages(capsys, argv, message):
    # the crown rule and the weight rule are read from graphs, message and all
    assert run(capsys, *argv) == (EXIT_USAGE, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv,vertices",
    [
        (("crown", "--n", "100000000000000000000", "--mode", "formula"),
         200000000000000000000),
        (("family", "crown", "--params", "100000000000000000000"), 200000000000000000000),
        (("family", "complete-bipartite", "--params", "100000000000000000000,2"),
         100000000000000000002),
        (("family", "complete-bipartite", "--params", "50000,50001"), 100001),
    ],
    ids=["crown", "family-crown", "family-complete-bipartite", "one-past-the-cap"],
)
def test_shapes_past_the_vertex_cap_exit_2(capsys, monkeypatch, argv, vertices):
    # refused before any weight tuple, variable name or table is built
    from crownbetti import cli as cli_module

    def refuse(*args, **kwargs):
        raise AssertionError("a shape past the cap was computed")

    for name in ("family_top_betti", "shape_graded_formula", "shape_entry_count"):
        monkeypatch.setattr(cli_module, name, refuse)
    assert run(capsys, *argv) == (
        EXIT_USAGE, "", f"error: the shape has {vertices} vertices, above the cap of 100000\n"
    )


def test_shape_at_the_vertex_cap_answers(capsys):
    code, out, err = run(capsys, "family", "complete-bipartite", "--params", "50000,50000")
    assert code == EXIT_OK and err == ""
    assert out.splitlines()[0] == "pdim: 99998"


# each option that reads integers, with its text holding V and the part the
# error quotes; verify's LO case has HI = 8, over the guard, so only the range
# parse can quote it
INTEGER_OPTIONS = {
    "crown-n": (("crown", "--n", "V", "--mode", "formula"), "V"),
    "crown-weights": (("crown", "--n", "3", "--weights", "1,V,1", "--mode", "formula"), "1,V,1"),
    "family-weights": (("family", "crown", "--params", "3", "--weights", "1,V,1"), "1,V,1"),
    "family-params": (("family", "crown", "--params", "V"), "V"),
    "crown-field": (("crown", "--n", "3", "--mode", "oracle", "--field", "V"), "V"),
    "graph-field": (("graph", "DOC", "--field", "V"), "V"),
    "family-field": (("family", "crown", "--params", "3", "--oracle", "--field", "V"), "V"),
    "verify-field": (("verify", "--n", "2", "--field", "V"), "V"),
    "verify-lo": (("verify", "--n", "V..8"), "V..8"),
    "verify-hi": (("verify", "--n", "2..V"), "2..V"),
    "verify-weights": (("verify", "--n", "3", "--weights", "1,1,1;1,V,1"), "1,V,1"),
    "verify-n-max": (("verify", "--n", "2", "--n-max", "V"), "V"),
}
# text that int() reads but str(int) never prints, a number past Python's
# 4300-digit limit, and no text at all
NOT_PLAIN_DIGITS = {
    "underscore": "1_0", "plus": "+3", "space": " 3", "arabic-indic": "\u0663",
    "5000-digits": "9" * 5000, "empty": "",
}


@pytest.mark.parametrize("text", NOT_PLAIN_DIGITS.values(), ids=NOT_PLAIN_DIGITS.keys())
@pytest.mark.parametrize("option", INTEGER_OPTIONS)
def test_integers_are_plain_digits(capsys, monkeypatch, tmp_path, option, text):
    from crownbetti import cli as cli_module

    def refuse(*args, **kwargs):
        raise AssertionError("a table was computed from a misread integer")

    for name in ("multigraded_betti", "shape_graded_formula", "shape_betti_formula"):
        monkeypatch.setattr(cli_module, name, refuse)
    for name in (
        "check_formula_vs_oracle", "check_crown_splitting", "check_colon_chain",
        "check_restriction", "check_binomial_identity",
    ):
        monkeypatch.setattr(checks, name, refuse)
    doc = tmp_path / "graph.json"
    doc.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    template, quoted = INTEGER_OPTIONS[option]
    argv = [a.replace("V", text).replace("DOC", str(doc)) for a in template]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    last = err.splitlines()[-1]
    assert "error: " in last and repr(quoted.replace("V", text)) in last


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


@pytest.mark.parametrize("source", ["oracle", "formula"])
def test_multigraded_lines_follow_the_table_order(source):
    # the lines are sorted by (i, exponents), the order of the entries' keys
    w = (1, 2, 3, 1)
    if source == "oracle":
        table = multigraded_betti(edge_ideal(crown(4, w)))
    else:
        table = multigraded_betti_formula(4, w)
    lines = report_text(table, multigraded=True).split("\n\n", 2)[2].splitlines()
    assert lines == [f"{i}  {a}  {c}" for (i, a), c in sorted(table.entries.items())]


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 8193])
def test_json_writer_matches_one_shot_dumps(count):
    # the rows are encoded a slice of 4096 at a time; the bytes are json.dumps'
    from crownbetti.render import _write_json

    doc = {
        "total": [1, 2],
        "multigraded": [(k % 3, (k, 0, 10**9), 1 + k % 2) for k in range(count)],
        "pdim": 1,
        "graded": [[0, 1, 1], [1, 3, 2]],
        "reg": 2,
    }
    out = io.StringIO()
    _write_json(doc, out)
    assert out.getvalue() == json.dumps(doc, sort_keys=True) + "\n"


def _listing(width, lows, highs, indices, counts):
    """Variables v1..v<width> and the sorted rows (i, lo + hi, c) for i below
    `indices` over every low half in `lows` and high half in `highs`, which
    split the exponents at width // 2 as the row writer does."""
    variables = VariableSet(tuple(f"v{k}" for k in range(1, width + 1)))
    exponents = sorted({lo + hi for lo in lows for hi in highs})
    rows = [
        (i, e, counts[(i + k) % len(counts)])
        for i in range(indices)
        for k, e in enumerate(exponents)
    ]
    return variables, rows


@st.composite
def _listings(draw):
    width = draw(st.integers(1, 9))
    exponent = st.sampled_from([0, 1, 2, 10**9]) | st.integers(0, 10**9)

    def halves(size):  # the all-zero half always among them
        return st.lists(st.tuples(*[exponent] * size), max_size=4).map(
            lambda parts: [(0,) * size, *parts]
        )

    return _listing(
        width,
        draw(halves(width // 2)),
        draw(halves(width - width // 2)),
        draw(st.integers(1, 200)),
        draw(st.lists(st.integers(1, 10**9), min_size=1, max_size=3)),
    )


@given(_listings())
@example(_listing(3, [(0,), (1,)], [(0, 0), (2, 10**9)], 1100, [1, 2]))  # 4400 rows
@example(_listing(1, [()], [(0,), (1,), (10**9,)], 1400, [3]))  # no low half, 4200 rows
@settings(max_examples=60, deadline=None)
def test_row_writer_matches_json_dumps_and_monomial_text(listing):
    # the writer joins cached half texts; the bytes are json.dumps' and str(Multidegree)'s
    from crownbetti.render import _json_dict, _text_report, _write_json, graded_report

    variables, rows = listing
    graded = Counter()
    for i, e, c in rows:
        graded[i, sum(e)] += c
    doc = _json_dict(graded, rows)
    out = io.StringIO()
    _write_json(doc, out)
    assert out.getvalue() == json.dumps(doc, sort_keys=True) + "\n"
    lines = [f"{i}  {Multidegree(variables, e)}  {c}" for i, e, c in rows]
    expected = graded_report(graded, raw=True) + "\n" + "\n".join(lines) + "\n"
    assert _text_report(graded, rows, variables, True, True) == expected


class TestCollectorPause:
    """A command runs with the cyclic collector off; main restores it."""

    @pytest.fixture(autouse=True)
    def collector_on(self):
        gc.enable()
        yield
        gc.enable()

    @pytest.fixture
    def command(self, monkeypatch):
        from crownbetti import cli as cli_module

        seen = []

        def recording(args):
            seen.append(gc.isenabled())
            return EXIT_OK

        monkeypatch.setattr(cli_module, "cmd_crown", recording)
        return seen

    def test_collector_is_off_inside_a_command(self, capsys, command):
        assert run(capsys, "crown", "--n", "3") == (EXIT_OK, "", "")
        assert command == [False]
        assert gc.isenabled()

    def test_collector_is_on_after_a_command(self, capsys):
        assert run(capsys, "crown", "--n", "3", "--mode", "formula")[0] == EXIT_OK
        assert gc.isenabled()

    def test_collector_is_on_after_a_usage_error(self, capsys):
        assert run(capsys, "crown", "--n", "1")[0] == EXIT_USAGE
        assert gc.isenabled()

    def test_collector_is_on_after_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["crown", "--no-such-option"])
        capsys.readouterr()
        assert gc.isenabled()

    def test_collector_is_on_after_an_exception_in_a_command(self, monkeypatch):
        from crownbetti import cli as cli_module

        def failing(args):
            raise RuntimeError("inside the command")

        monkeypatch.setattr(cli_module, "cmd_crown", failing)
        with pytest.raises(RuntimeError, match="inside the command"):
            main(["crown", "--n", "3"])
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, capsys, command):
        gc.disable()
        assert run(capsys, "crown", "--n", "3") == (EXIT_OK, "", "")
        assert command == [False]
        assert not gc.isenabled()


# sha256 of the stdout of three JSON listings: how a listing is built may
# change, its bytes may not
GRAPH_DOCUMENT = {
    "vertices": ["a", "b", "c", "d", "e"],
    "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "e"], ["e", "a"], ["a", "c"]],
    "weights": {"b": 2, "c": 3, "e": 2},
}
PINNED_STDOUT = {
    ("crown", "--n", "6", "--weights", "1,2,3,1,2,3", "--mode", "formula", "--output", "json"):
        "19be5e425dd12fdb8aef352175924a6cd664aebbe2ae6b843847393779991a2c",
    ("crown", "--n", "5", "--mode", "oracle", "--output", "json", "--field", "0"):
        "c7020a80339a8e17ff3a83fbccea17f277a6265e56609973bbbd94af0815bad2",
    ("graph", "DOC", "--output", "json"):
        "00fb675e35999ef4b84883ce93013afa41d65e8feb61f02e1e4c0cc5c94e8034",
}


@pytest.mark.parametrize("argv", PINNED_STDOUT, ids=["crown-formula", "crown-oracle", "graph"])
def test_json_output_is_pinned(capsys, tmp_path, argv):
    doc = tmp_path / "graph.json"
    doc.write_text(json.dumps(GRAPH_DOCUMENT))
    code, out, err = run(capsys, *(str(doc) if a == "DOC" else a for a in argv))
    assert (code, err) == (EXIT_OK, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[argv]


def test_json_rows_share_the_exponent_tuples():
    table = multigraded_betti_formula(4, (1, 2, 3, 1))
    data = table_to_json_dict(table)
    exponents = {id(a.exponents) for _, a in table.entries}
    assert all(type(row) is tuple and id(row[1]) in exponents for row in data["multigraded"])
    # the table comes back from the tuple rows and from the lists json reads
    assert table_from_json_dict(data, xy_variables(4)) == table
    assert table_from_json_dict(json.loads(json.dumps(data)), xy_variables(4)) == table


@pytest.mark.parametrize(
    "rows",
    [
        [[0, [1, 0, 0, 1], 1], [0, [1, 0, 0, 1], 2]],  # would merge into one entry of 2
        [[0, [1, 0, 0, 1], True]],
        [[0, [1, 0, 0, 1], 1.0]],
        [[0, [1.5, 0, 0, 1], 1]],
        [[0, [True, 0, 0, 1], 1]],
        [[True, [1, 0, 0, 1], 1]],
    ],
    ids=["repeated-row", "bool-count", "float-count", "float-exponent", "bool-exponent",
         "bool-index"],
)
def test_json_rows_are_refused_not_reinterpreted(rows):
    # a document from outside is read as it is written, or refused
    with pytest.raises(ValueError, match="row "):
        table_from_json_dict({"multigraded": rows}, xy_variables(2))
