"""Command-line interface.

Commands:
  crown    Betti data of a crown edge ideal (closed form, oracle, or both)
  graph    oracle Betti data of an arbitrary weighted oriented graph (JSON)
  family   top Betti data of one of the four named families
  verify   formula-vs-oracle sweeps plus the structural lemma checks

Exit codes: 0 success, 2 usage or parse error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from . import checks
from .formulas import (
    FAMILIES,
    family_top_betti,
    multigraded_betti_formula,
    shape_betti_formula,
    shape_graded_formula,
)
from .graphs import WeightedOrientedGraph, crown, edge_ideal
from .homology import BettiTable, FieldSpec, multigraded_betti
from .multidegree import VariableSet
from .render import graded_report, report_text, table_to_json_dict

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3


class UsageError(Exception):
    pass


def _parse_weights(text: Optional[str], n: int) -> tuple[int, ...]:
    if text is None:
        return (1,) * n
    try:
        weights = tuple(int(w) for w in text.split(","))
    except ValueError:
        raise UsageError(f"weights must be comma-separated integers, got {text!r}")
    if len(weights) != n:
        raise UsageError(f"expected {n} weights, got {len(weights)}")
    if any(w < 1 for w in weights):
        raise UsageError("weights must be positive")
    return weights


def _parse_field(text: str) -> FieldSpec:
    try:
        return FieldSpec(int(text))
    except ValueError as exc:
        raise UsageError(str(exc))


def _emit(table: BettiTable, args) -> None:
    if args.output == "json":
        print(json.dumps(table_to_json_dict(table), sort_keys=True))
    else:
        print(report_text(table, multigraded=args.multigraded, raw=args.raw), end="")


def cmd_crown(args) -> int:
    if args.n < 2:
        raise UsageError(f"crown graph needs n >= 2, got {args.n}")
    weights = _parse_weights(args.weights, args.n)
    field = _parse_field(args.field)
    if args.mode == "formula" and args.audit_full_lattice:
        raise UsageError("--audit-full-lattice applies to the oracle, not to --mode formula")
    if args.mode == "formula" and args.output == "text" and not args.multigraded:
        # the report shows graded numbers only: count them, list no entry
        graded = shape_graded_formula(args.n, args.n, args.n, weights)
        print(graded_report(graded, raw=args.raw), end="")
        return EXIT_OK
    oracle = formula = None
    if args.mode in ("oracle", "both"):
        oracle = multigraded_betti(
            edge_ideal(crown(args.n, weights)),
            field,
            audit_full_box=args.audit_full_lattice,
        )
    if args.mode in ("formula", "both"):
        formula = multigraded_betti_formula(args.n, weights)
    if args.mode == "both" and oracle != formula:
        return _report_mismatch(oracle, formula)
    _emit(oracle if oracle is not None else formula, args)
    return EXIT_OK


def _report_mismatch(oracle: BettiTable, formula: BettiTable) -> int:
    """Print the first entry where the two tables differ; the mismatch code."""
    keys = set(oracle.entries) | set(formula.entries)
    i, a = min(k for k in keys if oracle.entries.get(k) != formula.entries.get(k))
    print(
        f"mismatch at beta_({i}, {a}): oracle={oracle.entry(i, a)} "
        f"formula={formula.entry(i, a)}",
        file=sys.stderr,
    )
    return EXIT_MISMATCH


def load_graph_document(path: str) -> WeightedOrientedGraph:
    """Parse a graph interchange document.

    Schema: {"vertices": [label, ...], "edges": [[tail, head], ...],
    "weights": {vertex: positive integer, ...}}; labels are strings, weights default to 1,
    no other key is allowed and no edge may repeat.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise UsageError(f"{path}: expected a JSON object")
    unknown = sorted(set(data) - {"vertices", "edges", "weights"})
    if unknown:
        raise UsageError(f"{path}: unknown keys {unknown}; expected vertices, edges, weights")
    vertices, edges = data.get("vertices"), data.get("edges")
    if not isinstance(vertices, list):
        raise UsageError(f"{path}: vertices must be a list of labels")
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise UsageError(f"{path}: edges must be a list of [tail, head] pairs")
    if not all(isinstance(v, str) for v in vertices + [v for e in edges for v in e]):
        raise UsageError(f"{path}: vertex labels and edge endpoints must be strings")
    edge_set = frozenset(map(tuple, edges))
    if len(edge_set) < len(edges):
        repeated = next(e for k, e in enumerate(edges) if e in edges[:k])
        raise UsageError(f"{path}: edge {repeated} is listed more than once")
    weights = data.get("weights", {})
    if not isinstance(weights, dict):
        raise UsageError(f"{path}: weights must be an object")
    try:
        return WeightedOrientedGraph(VariableSet(tuple(vertices)), edge_set, weights)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}")


def cmd_graph(args) -> int:
    graph = load_graph_document(args.input)
    ideal = edge_ideal(graph)
    if ideal.is_zero():
        raise UsageError("empty edge ideal: the graph has no edges")
    field = _parse_field(args.field)
    table = multigraded_betti(ideal, field, audit_full_box=args.audit_full_lattice)
    _emit(table, args)
    return EXIT_OK


def cmd_family(args) -> int:
    kind = args.kind.replace("-", "_")
    constructor, arity, shape = FAMILIES[kind]
    try:
        params = tuple(int(p) for p in args.params.split(","))
    except ValueError:
        raise UsageError(f"params must be comma-separated integers, got {args.params!r}")
    if len(params) != arity:
        raise UsageError(f"family {args.kind!r} takes {arity} parameter(s)")
    _, _, n_y = shape(*params)
    weights = _parse_weights(args.weights, n_y)
    try:
        top = family_top_betti(kind, params, weights)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(f"pdim: {top.pdim}")
    print(f"top multidegree: {top.top_multidegree}")
    print(f"top value: {top.top_value}")
    if args.oracle:
        graph = constructor(*params, weights)
        table = multigraded_betti(edge_ideal(graph), _parse_field(args.field))
        print(report_text(table, multigraded=args.multigraded, raw=args.raw), end="")
        formula = shape_betti_formula(*shape(*params), weights)
        ok = table == formula
        print(f"table check: {'pass' if ok else 'FAIL'}")
        if not ok:
            return _report_mismatch(table, formula)
    return EXIT_OK


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            return int(lo), int(hi)
        n = int(text)
        return n, n
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected N or LO..HI")


def cmd_verify(args) -> int:
    field = _parse_field(args.field)
    results: list[tuple[str, list[str]]] = []
    if args.identity:
        if args.n_max < 2:
            raise UsageError(f"the identity check needs --n-max >= 2, got {args.n_max}")
        results.append(
            (f"binomial-identity n<={args.n_max}", checks.check_binomial_identity(args.n_max))
        )
    else:
        lo, hi = _parse_range(args.n)
        if hi > 6:
            raise UsageError(f"oracle verification is guarded at n <= 6, got {hi}")
        if not 2 <= lo <= hi:
            raise UsageError(f"bad range {args.n!r}: crown sizes need 2 <= LO <= HI")
        for n in range(lo, hi + 1):
            if args.weights == "default":
                matrix = checks.default_weight_matrix(n)
            else:
                matrix = [
                    _parse_weights(row, n) for row in args.weights.split(";")
                ]
            for weights in matrix:
                label = f"n={n} w={','.join(str(w) for w in weights)}"
                results.append(
                    (f"formula-vs-oracle {label}", checks.check_formula_vs_oracle(n, weights, field))
                )
                if n >= 3:
                    results.append(
                        (f"crown-splitting {label}", checks.check_crown_splitting(n, weights, field))
                    )
            results.append(
                (f"restriction n={n}", checks.check_restriction(n, matrix[0], field))
            )
        results.append(("binomial-identity n<=12", checks.check_binomial_identity(12)))
    failed = 0
    for name, failures in results:
        if failures:
            failed += 1
            print(f"FAIL {name}: {failures[0]}")
        else:
            print(f"PASS {name}")
    print(
        json.dumps(
            {"checks": len(results), "failures": failed}, sort_keys=True
        )
    )
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crownbetti",
        description="Betti numbers of edge ideals of weighted oriented crown graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table_options(p):
        p.add_argument("--field", default="32003", help="field characteristic: a prime or 0")
        p.add_argument("--raw", action="store_true", help="emit (i, j, count) triples instead of a diagram")
        p.add_argument("--multigraded", action="store_true", help="include the full multigraded table")

    def add_common(p):
        add_table_options(p)
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--audit-full-lattice", action="store_true",
                       help="evaluate every multidegree below the lcm of all generators")

    p_crown = sub.add_parser("crown", help="Betti data of a crown edge ideal")
    p_crown.add_argument("--n", type=int, required=True)
    p_crown.add_argument("--weights", help="comma-separated weights of y1..yn (default all 1)")
    p_crown.add_argument("--mode", choices=("formula", "oracle", "both"), default="both")
    add_common(p_crown)
    p_crown.set_defaults(func=cmd_crown)

    p_graph = sub.add_parser("graph", help="oracle Betti data of a graph document")
    p_graph.add_argument("input", help="path to a JSON graph document")
    add_common(p_graph)
    p_graph.set_defaults(func=cmd_graph)

    p_family = sub.add_parser("family", help="top Betti data of a named family")
    p_family.add_argument("kind", choices=tuple(k.replace("_", "-") for k in FAMILIES))
    p_family.add_argument("--params", required=True, help="comma-separated family parameters")
    p_family.add_argument("--weights", help="comma-separated y-weights (default all 1)")
    p_family.add_argument("--oracle", action="store_true",
                          help="also compute the oracle table and check it against the formula")
    add_table_options(p_family)
    p_family.set_defaults(func=cmd_family)

    p_verify = sub.add_parser("verify", help="formula-vs-oracle verification sweep")
    p_verify.add_argument("--n", default="2..4", help="range of crown sizes, e.g. 2..4")
    p_verify.add_argument("--weights", default="default",
                          help="'default' or semicolon-separated weight vectors")
    p_verify.add_argument("--field", default="32003")
    p_verify.add_argument("--identity", action="store_true",
                          help="only run the binomial identity check")
    p_verify.add_argument("--n-max", type=int, default=12,
                          help="upper bound for the identity check")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
