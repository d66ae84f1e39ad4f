"""crownbetti benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload crown-oracle --seed 1 --seconds 25 --trace 0

Each run starts bench.py in a fresh single-threaded process (numpy's
thread pools set to one), so that peak_rss_mb is that workload's own.
Set-up is measured in SETUP_PROBES further fresh processes as well and
reported as the median.  With --trace 0 the metrics are the end-to-end
ones (wall_ref is a median over the run's passes); with
--trace 1 they are the per-layer ones, and the spans are written to
.bench_trace/.  The last line printed is one JSON object: correct,
attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from bench import ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 4
TIME_LIMIT_S = 170
SINGLE_THREAD = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}


class ChildFailed(Exception):
    pass


def _units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _child(args: list[str], deadline: float) -> dict:
    """Run bench.py to completion; relay its log lines, return its result."""
    env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), *args],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed("workload process timed out")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--spec", json.dumps(asdict(WORKLOADS[workload])), "--seed", str(seed)]
    probes = [
        _child(common + ["--setup-only"], deadline)["setup_s"]
        for _ in range(0 if trace else SETUP_PROBES)
    ]
    res = _child(
        common + ["--seconds", str(seconds), "--trace", str(int(trace))], deadline
    )
    attempted, failed = res["attempted"], res["failed"]
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:g}")
    if trace:
        values = res["metrics"]
        if res["absent"]:
            print(f"absent boundaries (reported as 0): {', '.join(res['absent'])}")
    else:
        print(f"pass seconds: {' '.join(f'{w:.4f}' for w in res['walls'])}")
        print(f"wall_s: {statistics.median(res['walls']):.4f} (median pass)")
        values = {
            "wall_ref": statistics.median(res["wall_refs"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(probes + [res["setup_s"]]),
        }
    units = _units()
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "crownbetti" / "__init__.py").is_file():
        print(f"error: no crownbetti sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
