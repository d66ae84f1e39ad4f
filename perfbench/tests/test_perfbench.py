"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

TINY = {
    w.name: w
    for w in (
        bench.Workload("tiny-crown", "crown", n=3, characteristic=32003),
        bench.Workload("tiny-crown-q", "crown", n=3, characteristic=0),
        bench.Workload("tiny-graphs", "graphs", characteristic=2, graphs=2, vertices=6, edges=7),
        bench.Workload("tiny-formula", "formula", n=3),
    )
}
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
OPERATION_COUNTS = (
    "ideals.lattice_points",
    "multidegree.lcm_calls",
    "linalg.rank_calls",
    "linalg.matrix_cells",
    "linalg.matrix_nnz",
    "formulas.selections",
)


@pytest.fixture(scope="module")
def cb():
    return bench.import_crownbetti()


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_printed(monkeypatch, capsys, name, trace):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    argv = ["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in declared
    }


def _alter_one_entry(monkeypatch, cb):
    real = cb.multigraded_betti

    def altered(ideal, field):
        table = real(ideal, field)
        key, count = next(iter(table.entries.items()))
        return cb.BettiTable(table.variables, {**table.entries, key: count + 1})

    monkeypatch.setattr(cb, "multigraded_betti", altered)


@pytest.mark.parametrize("name", ("tiny-crown", "tiny-crown-q", "tiny-graphs"))
def test_altered_entry_counts_as_failed(monkeypatch, cb, name):
    _alter_one_entry(monkeypatch, cb)
    result = bench.measure(TINY[name], 1, 0, False, cb)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_exception_counts_as_failed_and_run_goes_on(monkeypatch, cb):
    real, calls = cb.multigraded_betti, []

    def first_call_raises(ideal, field):
        calls.append(ideal)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return real(ideal, field)

    monkeypatch.setattr(cb, "multigraded_betti", first_call_raises)
    result = bench.measure(TINY["tiny-graphs"], 1, 0, False, cb)
    assert (result["attempted"], result["failed"]) == (2, 1)


def test_digest_sees_a_rank_error_the_euler_check_misses(cb):
    wl = bench.WORKLOADS["graph-oracle"]
    index = 4  # the smallest shipped graph
    base = bench.base_graphs(wl.vertices, wl.edges, index + 1)[index]
    perm = dict(zip(base[0], reversed(base[0])))
    digest = bench.GRAPH_DIGESTS[(wl.vertices, wl.edges, wl.characteristic)][index]
    case = bench.GraphOracleCase(cb, index, base, perm, wl.characteristic, digest)
    case.prepare()
    table = case.compute()
    assert case.check(table)
    # one more cycle and one more boundary: beta_{i,a} and beta_{i+1,a} rise together
    (i, a), count = next(iter(table.entries.items()))
    entries = dict(table.entries)
    entries[(i, a)] = count + 1
    entries[(i + 1, a)] = entries.get((i + 1, a), 0) + 1
    shifted = cb.BettiTable(table.variables, entries)
    assert bench.table_euler(shifted) == case.euler
    assert not case.check(shifted)


def test_formula_report_checks(cb):
    case = bench.FormulaCase(cb, 4, (1, 3, 2, 2))
    text, js = case.compute()
    assert case.check((text, js))
    data = json.loads(js)
    bad_reg = json.dumps({**data, "reg": data["reg"] + 1}, sort_keys=True)
    assert not case.check((text, bad_reg))
    data["multigraded"][0][2] += 1
    assert not case.check((text, json.dumps(data, sort_keys=True)))
    assert not case.check((text.replace("pdim: 5", "pdim: 4"), js))


def test_trace_survives_missing_boundaries(monkeypatch, cb):
    gone = [
        spans.Boundary("linalg.rank", "crownbetti.homology", "FieldSpec.rank_removed"),
        spans.Boundary("linalg.rank", "crownbetti.linalg_removed", "rank"),
    ]
    kept = [b for b in spans.BOUNDARIES if b.span != "linalg.rank"]
    monkeypatch.setattr(spans, "BOUNDARIES", tuple(kept + gone))
    result = bench.measure(TINY["tiny-crown"], 1, 0, True, cb)
    assert result["failed"] == 0
    assert result["absent"] == ["linalg.rank", "linalg.rank"]
    assert result["metrics"]["linalg.rank_calls"] == 0
    assert result["metrics"]["homology.oracle_s"] > 0
    assert {m["name"] for m in SPEC["per_layer"]} == set(result["metrics"])


def test_trace_restores_the_program(cb):
    before = (cb.multigraded_betti, cb.homology.FieldSpec.rank, cb.ideals.lcm)
    bench.measure(TINY["tiny-crown"], 1, 0, True, cb)
    assert (cb.multigraded_betti, cb.homology.FieldSpec.rank, cb.ideals.lcm) == before


@pytest.mark.parametrize("name", ("tiny-graphs", "tiny-formula"))
def test_operation_counts_repeat_between_traced_runs(cb, name):
    first, second = (bench.measure(TINY[name], 2, 0, True, cb)["metrics"] for _ in range(2))
    assert [first[c] for c in OPERATION_COUNTS] == [second[c] for c in OPERATION_COUNTS]
    assert any(first[c] for c in OPERATION_COUNTS)


def test_same_seed_same_inputs(cb):
    labels = lambda seed: [
        (c.label, c.ideal) for c in bench.setup(TINY["tiny-graphs"], seed, cb)
    ]
    assert labels(5) == labels(5)
    assert any(labels(seed) != labels(5) for seed in range(6, 10))


def test_fails_without_program_sources(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        bench.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "crown-oracle",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
