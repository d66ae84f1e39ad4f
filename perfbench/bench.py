"""One benchmark workload in one process: set-up, timed passes, checks.

run.py starts this file in a fresh process with numpy's thread pools set
to one and passes the workload as JSON, so that the program sees only the
generated inputs.  The last line printed is one JSON object for run.py.

A pass computes every table of the workload back to back (a closed loop
with a single caller).  Outputs are checked after the pass, outside the
timed region; an exception or a failed check counts the table as failed
and the run goes on.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import re
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

from spans import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"


@dataclass(frozen=True)
class Workload:
    """``kind`` is "crown" (oracle on one crown, checked against the closed
    form), "graphs" (oracle on relabelled random graphs) or "formula"
    (closed form through the command line, text and JSON)."""

    name: str
    kind: str
    n: int = 0
    characteristic: int = 32003
    graphs: int = 0
    vertices: int = 0
    edges: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("crown-oracle", "crown", n=5, characteristic=32003),
        Workload("crown-oracle-q", "crown", n=4, characteristic=0),
        Workload("graph-oracle", "graphs", characteristic=2, graphs=6, vertices=8, edges=11),
        Workload("crown-formula", "formula", n=7),
    )
}

# The random graphs are drawn once, from this fixed seed; --seed relabels
# their vertices and reorders them, so every seed asks for isomorphic work.
# Fresh graphs per seed would vary the work itself: their lattice points
# over 20 seeds spread by 19-27% of the median (quartile distance), more
# than any run-to-run bound can absorb.
BASE_GRAPH_SEED = 1

# sha256 of each base graph's table in base vertex order (see
# graph_digest), recorded from the oracle at the commit that added this
# benchmark.  The Euler check cannot see a wrong rank: it shifts two
# adjacent homology groups by the same amount.
GRAPH_DIGESTS = {
    (8, 11, 2): (
        "603c314aeb0591e0556bb74c69233b8a41d6c611f56bee6957fd34ff39b2cc54",
        "848822836f9cbc6bf25eb03aa306930a42456cca951f10f8699162353e60d0ef",
        "085b458bfb5d4d8e5e8885adf4941b8996e5d5b95aa772ead6dd006841877755",
        "08cbbb0a3a1402e6a83c83ab21c997b299d4b1fa146ed8d00ed6862422959d52",
        "803668d265ab2e55580e3b1d51bd337d44cd367d8c4481671ff6cbb978f41a85",
        "53a966fc09805060d730d715a99f19929ece3119d9247ce580ebd518236dae41",
    ),
}

FAILED = object()


def import_crownbetti():
    """Import the package from this checkout's sources, never another copy."""
    if not (SRC / "crownbetti" / "__init__.py").is_file():
        raise SystemExit(f"error: no crownbetti sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crownbetti
    import crownbetti.cli

    if Path(crownbetti.__file__).resolve().parent != SRC / "crownbetti":
        raise SystemExit(f"error: imported crownbetti from {crownbetti.__file__}")
    return crownbetti


# ---------------------------------------------------------------- inputs


def base_graphs(vertices: int, edges: int, count: int):
    """``count`` random weighted oriented graphs as (names, edges, weights):
    ``edges`` distinct vertex pairs, each oriented at random, every vertex
    weighted in 1..3."""
    rng = random.Random(BASE_GRAPH_SEED)
    names = tuple(f"v{i}" for i in range(1, vertices + 1))
    pairs = list(itertools.combinations(names, 2))
    out = []
    for _ in range(count):
        chosen = rng.sample(pairs, edges)
        arcs = tuple((a, b) if rng.random() < 0.5 else (b, a) for a, b in chosen)
        out.append((names, arcs, {v: rng.randint(1, 3) for v in names}))
    return out


class OracleCase:
    """One table from the homology oracle; subclasses build ``ideal`` and
    ``field`` and know the expected answer."""

    def compute(self):
        return self.cb.multigraded_betti(self.ideal, self.field)


class CrownOracleCase(OracleCase):
    def __init__(self, cb, n, weights, characteristic):
        self.cb, self.n, self.weights = cb, n, weights
        self.label = f"crown n={n} w={','.join(map(str, weights))}"
        self.field = cb.FieldSpec(characteristic)
        self.ideal = cb.edge_ideal(cb.crown(n, weights))

    def prepare(self):
        self.expected = self.cb.multigraded_betti_formula(self.n, self.weights)

    def check(self, table) -> bool:
        return table == self.expected


class GraphOracleCase(OracleCase):
    def __init__(self, cb, index, base, perm, characteristic, digest):
        names, arcs, weights = base
        self.cb, self.digest = cb, digest
        self.label = f"graph {index}"
        # position, in the relabelled table, of each base vertex
        self.back = [names.index(perm[v]) for v in names]
        graph = cb.WeightedOrientedGraph(
            cb.VariableSet(names),
            frozenset((perm[a], perm[b]) for a, b in arcs),
            {perm[v]: w for v, w in weights.items()},
        )
        self.field = cb.FieldSpec(characteristic)
        self.ideal = cb.edge_ideal(graph)

    def prepare(self):
        gens = [tuple(g.exponents) for g in self.ideal.generators]
        self.euler = taylor_euler(gens)

    def check(self, table) -> bool:
        if table_euler(table) != self.euler:
            return False
        return not self.digest or graph_digest(table, self.back) == self.digest


class FormulaCase:
    def __init__(self, cb, n, weights):
        self.cb, self.n, self.weights = cb, n, weights
        self.label = f"formula n={n} w={','.join(map(str, weights))}"
        self.argv = ["crown", "--n", str(n), "--weights", ",".join(map(str, weights)),
                     "--mode", "formula"]

    def prepare(self):
        pass

    def compute(self):
        return self._cli(self.argv), self._cli(self.argv + ["--output", "json"])

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cb.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"crownbetti {' '.join(argv)} exited {code}")
        return out.getvalue()

    def check(self, output) -> bool:
        text, js = output
        return check_formula_report(self.cb, self.n, self.weights, text, js)


def setup(wl: Workload, seed: int, cb=None):
    """Import the package, generate the seeded inputs, build graphs and ideals."""
    cb = cb or import_crownbetti()
    rng = random.Random(seed)
    if wl.kind == "crown":
        weights = tuple(rng.randint(1, 3) for _ in range(wl.n))
        return [CrownOracleCase(cb, wl.n, weights, wl.characteristic)]
    if wl.kind == "formula":
        weights = tuple(rng.randint(1, 3) for _ in range(wl.n))
        return [FormulaCase(cb, wl.n, weights)]
    if wl.kind == "graphs":
        digests = GRAPH_DIGESTS.get((wl.vertices, wl.edges, wl.characteristic), ())
        cases = []
        for index, base in enumerate(base_graphs(wl.vertices, wl.edges, wl.graphs)):
            names = list(base[0])
            rng.shuffle(names)
            perm = dict(zip(base[0], names))
            digest = digests[index] if index < len(digests) else ""
            cases.append(GraphOracleCase(cb, index, base, perm, wl.characteristic, digest))
        rng.shuffle(cases)
        return cases
    raise ValueError(f"unknown workload kind {wl.kind!r}")


# ---------------------------------------------------------------- checks


def taylor_euler(gens) -> dict:
    """sum over generator subsets S with lcm(S) = a of (-1)^(|S|-1), per a.

    This is the multigraded Euler characteristic of the Taylor resolution,
    which every free resolution of the ideal shares.
    """
    lcms = [None] * (1 << len(gens))
    out: Counter = Counter()
    for mask in range(1, 1 << len(gens)):
        low = mask & -mask
        g = gens[low.bit_length() - 1]
        rest = lcms[mask ^ low]
        lcms[mask] = g if rest is None else tuple(map(max, rest, g))
        out[lcms[mask]] += 1 if bin(mask).count("1") % 2 else -1
    return {a: c for a, c in out.items() if c}


def table_euler(table) -> dict:
    """sum over i of (-1)^i beta_{i,a}, per multidegree a."""
    out: Counter = Counter()
    for (i, a), c in table.entries.items():
        out[tuple(a.exponents)] += -c if i % 2 else c
    return {a: c for a, c in out.items() if c}


def graph_digest(table, back) -> str:
    canonical = sorted(
        (i, [a.exponents[k] for k in back], c) for (i, a), c in table.entries.items()
    )
    return hashlib.sha256(json.dumps(canonical).encode()).hexdigest()


def parse_text_report(text: str) -> dict:
    """pdim, reg, total and the graded numbers of the Betti diagram."""
    head, diagram = text.split("\n\n", 1)
    fields = dict(line.split(": ", 1) for line in head.splitlines())
    rows = [line.split() for line in diagram.splitlines()]
    cols = [int(i) for i in rows[0][1:]]
    graded = {}
    for row in rows[2:]:
        r = int(row[0])
        for i, cell in zip(cols, row[1:]):
            if cell != ".":
                graded[(i, i + r)] = int(cell)
    return {
        "pdim": int(fields["pdim"]),
        "reg": int(fields["reg"]),
        "total": [int(b) for b in fields["total"].split()],
        "graded": graded,
        "total_row": [int(b) for b in rows[1][1:]],
    }


_SEPARATORS = re.compile(r"\s*[,:]?\s*")


def scan_json_report(text: str) -> dict:
    """Decode the JSON report one multigraded entry at a time.

    The multigraded list holds the whole table; decoding it at once would
    make the checker's memory, not the program's, set peak_rss_mb.  The
    list is replaced by (entry count, sum of counts per index).
    """
    decoder = json.JSONDecoder()
    out = {}
    pos = _SEPARATORS.match(text, text.index("{") + 1).end()
    while text[pos] != "}":
        key, pos = decoder.raw_decode(text, pos)
        pos = _SEPARATORS.match(text, pos).end()
        if key == "multigraded":
            entries, sums = 0, Counter()
            pos = _SEPARATORS.match(text, text.index("[", pos) + 1).end()
            while text[pos] != "]":
                (i, _, c), pos = decoder.raw_decode(text, pos)
                entries += 1
                sums[i] += c
                pos = _SEPARATORS.match(text, pos).end()
            value, pos = (entries, sums), pos + 1
        else:
            value, pos = decoder.raw_decode(text, pos)
        out[key] = value
        pos = _SEPARATORS.match(text, pos).end()
    return out


def check_formula_report(cb, n, weights, text, js) -> bool:
    """Closed-form totals, regularity and pdim = 2n - 3; the text and JSON
    reports agree, and their graded and multigraded numbers add up to the
    totals."""
    t = parse_text_report(text)
    j = scan_json_report(js)
    total = [cb.total_betti_closed_form(n, i) for i in range(2 * n - 2)]
    graded = {(i, d): c for i, d, c in j["graded"]}
    graded_sums = Counter()
    for (i, _), c in graded.items():
        graded_sums[i] += c
    entries, multigraded_sums = j["multigraded"]
    indices = range(len(total))
    return (
        t["pdim"] == j["pdim"] == 2 * n - 3
        and t["reg"] == j["reg"] == cb.regularity_formula(n, weights)
        and t["total"] == t["total_row"] == j["total"] == total
        and t["graded"] == graded
        and [graded_sums[i] for i in indices] == total
        and [multigraded_sums[i] for i in indices] == total
        and entries > 0
    )


# ---------------------------------------------------------------- passes


def reference_loop() -> float:
    """Seconds for a fixed loop of tuple, dict and integer work.

    The hosts this runs on are shared, and their speed drifts by tens of
    percent over minutes.  Timing this loop next to every pass measures
    that drift, so that wall_ref can divide it out.
    """
    start = time.perf_counter()
    acc: dict = {}
    for i in range(100_000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, 0) + i * i % 7
    return time.perf_counter() - start


def run_pass(cases, tracer=None):
    """Compute every table back to back; return (seconds, outputs, failed).

    Only the computation is timed; the checks run after it.
    """
    outputs = []
    start = time.perf_counter()
    for case in cases:
        if tracer is not None:
            tracer.table = case.label
        try:
            outputs.append(case.compute())
        except Exception:
            traceback.print_exc()
            outputs.append(FAILED)
    seconds = time.perf_counter() - start
    failed = 0
    for case, output in zip(cases, outputs):
        try:
            ok = output is not FAILED and case.check(output)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed += 1
            print(f"check failed: {case.label}", file=sys.stderr)
    return seconds, outputs, failed


def repeat_share(cb, cases) -> float:
    """Share of lattice points whose upper Koszul complex, keyed by (ground
    size, face set), was already seen earlier in the pass."""
    seen, points = set(), 0
    for case in cases:
        if not isinstance(case, OracleCase):
            continue
        for a in sorted(cb.lcm_lattice(case.ideal), key=lambda m: tuple(m.exponents)):
            complex_ = cb.upper_koszul_complex(case.ideal, a)
            pos = {v: k for k, v in enumerate(complex_.ground)}
            faces = frozenset(sum(1 << pos[v] for v in face) for face in complex_.faces)
            seen.add((len(complex_.ground), faces))
            points += 1
    return 1 - len(seen) / points if points else 0.0


def measure(wl: Workload, seed: int, seconds: float, trace: bool, cb=None) -> dict:
    """The child's result: end-to-end figures, or per-layer ones if traced."""
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    cb = cb or import_crownbetti()
    with tracer.installed() if tracer else contextlib.nullcontext():
        cases = setup(wl, seed, cb)
    setup_s = time.perf_counter() - start
    for case in cases:
        case.prepare()
    if tracer:
        return traced_passes(cb, cases, tracer)
    return {"setup_s": setup_s, **timed_passes(cases, seconds)}


def timed_passes(cases, seconds: float) -> dict:
    """Passes until the next one would overrun ``seconds``; at least one."""
    walls, refs, attempted, failed, cycles = [], [reference_loop()], 0, 0, []
    begin = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        wall, outputs, bad = run_pass(cases)
        del outputs  # so that the next pass's peak memory is its own
        refs.append(reference_loop())
        walls.append(wall)
        attempted += len(cases)
        failed += bad
        cycles.append(time.perf_counter() - cycle)
        if time.perf_counter() - begin + statistics.median(cycles) > seconds:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "walls": walls,
        # each pass in units of the reference loops on either side of it
        "wall_refs": [2 * w / (a + b) for w, a, b in zip(walls, refs, refs[1:])],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_passes(cb, cases, tracer: Tracer) -> dict:
    """Two untraced passes, the first as warm-up, then one traced pass."""
    failed = 0
    for _ in range(2):
        untraced, outputs, bad = run_pass(cases)
        failed += bad
        del outputs
    with tracer.installed():
        traced, outputs, bad = run_pass(cases, tracer)
    metrics = layer_metrics(tracer)
    metrics["homology.repeat_share"] = repeat_share(cb, cases)
    metrics["render.bytes"] = sum(
        len(s.encode())
        for case, out in zip(cases, outputs)
        if isinstance(case, FormulaCase) and out is not FAILED
        for s in out
    )
    metrics["trace.overhead_s"] = traced - untraced
    return {
        "attempted": 3 * len(cases),
        "failed": failed + bad,
        "metrics": metrics,
        "absent": tracer.absent,
        "trace": tracer.to_json(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="the workload, as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    wl = Workload(**json.loads(args.spec))
    if args.setup_only:
        start = time.perf_counter()
        setup(wl, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    result = measure(wl, args.seed, args.seconds, bool(args.trace))
    trace = result.pop("trace", None)
    if trace is not None:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{wl.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": asdict(wl), "seed": args.seed, **trace}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
