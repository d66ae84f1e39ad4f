"""Command-line interface.

Commands:
  crown    Betti data of a crown edge ideal (closed form, oracle, or both)
  graph    oracle Betti data of an arbitrary weighted oriented graph (JSON)
  family   top Betti data of a named family; --oracle adds crown's report of its shape
  verify   formula-vs-oracle sweeps plus the structural lemma checks

Every integer on the command line is written as str(int) prints it: ASCII
digits after an optional '-', with no leading zero; anything else exits 2.
Exit codes: 0 success, 2 usage or parse error, 3 verification mismatch,
141 stdout closed by its reader before the report was written.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Optional, Sequence

from .formulas import (
    _formula_rows,
    family_top_betti,
    shape_betti_formula,
    shape_entry_count,
    shape_graded_formula,
)
from .graphs import (
    FAMILIES,
    WeightedOrientedGraph,
    _check_shape,
    _family_shape,
    _xy_graph,
    edge_ideal,
)
from .homology import DEFAULT_PRIME, BettiTable, FieldSpec, multigraded_betti
from .ideals import MAX_LISTED_ENTRIES
from .multidegree import VariableSet, _xy_variables
from .render import _report, _rows

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MISMATCH = 3
EXIT_CLOSED_PIPE = 141  # what a shell shows for a filter killed by SIGPIPE

# the most vertices s + t a shape may have: family answers at the cap in
# about 0.2 s (shared 2-core host), and no weight tuple or variable name is
# built past it
MAX_SHAPE_VERTICES = 10**5


FIELD_HELP = f"the oracle's field characteristic: a prime or 0 (default {DEFAULT_PRIME})"


class UsageError(Exception):
    pass


def _parse_ints(text: str, error: str, sep: str = ",", maxsplit: int = -1) -> tuple[int, ...]:
    """The integers of `text` split at `sep` at most `maxsplit` times (0: one integer),
    each written as str(int) prints it: ASCII digits, no leading zero, an optional '-',
    at most Python's 4300 digits.  Anything else is the usage error `error` of `text`."""
    try:
        values = tuple(int(x) for x in text.split(sep, maxsplit))
        if sep.join(map(str, values)) == text:
            return values
    except ValueError:
        pass
    raise UsageError(error.format(text))


def _parse_field(text: Optional[str]) -> FieldSpec:
    """The oracle's field: F_p for p = DEFAULT_PRIME unless --field names one."""
    if text is None:
        return FieldSpec()
    try:
        return FieldSpec(*_parse_ints(text, "field must be an integer, got {!r}", maxsplit=0))
    except ValueError as exc:
        raise UsageError(str(exc))


def _shape(
    kind: str, params: tuple[int, ...], weights: Optional[str]
) -> tuple[tuple[int, int, int], tuple[int, ...]]:
    """The shape (m, s, t) of the member of family `kind`, spelled as on the
    command line, with `params`, and its y-weights parsed from `weights`
    (default all 1).  The params are checked before the weights are read;
    params the family does not admit, a shape of more than MAX_SHAPE_VERTICES
    vertices, or weights the shape does not admit, are a usage error."""
    key = kind.replace("-", "_")
    try:
        shape = _family_shape(key, params)
        vertices = shape[1] + shape[2]
        if vertices > MAX_SHAPE_VERTICES:
            raise UsageError(
                f"the shape has {vertices} vertices, above the cap of {MAX_SHAPE_VERTICES}"
            )
        parsed = (1,) * shape[2] if weights is None else _parse_ints(
            weights, "weights must be comma-separated integers, got {!r}"
        )
        _check_shape(*shape, parsed)
    except ValueError as exc:
        raise UsageError(str(exc).replace(repr(key), repr(kind)))
    return shape, parsed


def _check_options(args, no_oracle: str = "", table: bool = True) -> None:
    """The option rules of crown, family and graph; `no_oracle` names what runs no oracle."""
    if no_oracle and args.field is not None:
        raise UsageError(f"--field sets the oracle's field: {no_oracle} runs no oracle")
    if not table and (args.raw or args.multigraded):
        raise UsageError(f"--raw and --multigraded shape the table: {no_oracle} prints none")
    if args.raw and args.output == "json":
        raise UsageError("--raw applies to the text report, not to --output json")


def _emit(graded: dict[tuple[int, int], int], rows, variables: VariableSet, args) -> None:
    """Print the report of graded numbers `graded` and the sorted rows
    (i, exponents, count) of entries over `variables`."""
    sys.stdout.writelines(_report(graded, rows, variables, args.output, args.multigraded, args.raw))


def _shape_report(shape, weights: tuple[int, ...], args, mode: str, head: str = "") -> int:
    """Print `head` and the report of the shape (m, s, t) with y-weights
    `weights` by `mode` (formula, oracle, or both compared); the exit code.
    A table is listed or computed only under the cap; a mismatch prints only `head`."""
    field = _parse_field(args.field)
    if mode != "formula" or args.output == "json" or args.multigraded:
        count = shape_entry_count(*shape, weights)
        if count > MAX_LISTED_ENTRIES:
            # str(int) writes at most 4300 digits: past about 14,000 vertices,
            # the count is shown by the power of 2 below it
            shown = count if count.bit_length() <= 10**4 else f"at least 2^{count.bit_length() - 1}"
            # only crown takes --mode and --output
            raise UsageError(
                f"the formula table has {shown} multigraded entries, above the cap of "
                f"{MAX_LISTED_ENTRIES}" + (
                    "; --mode formula without --output json or --multigraded counts the "
                    "graded numbers instead" if args.command == "crown" else ""
                )
            )
    if mode == "formula":
        # the graded numbers are counted and the rows listed: no table is built
        print(head, end="")
        rows = _formula_rows(*shape, weights)
        _emit(shape_graded_formula(*shape, weights), rows, _xy_variables(*shape[1:]), args)
        return EXIT_OK
    formula = shape_betti_formula(*shape, weights) if mode == "both" else None
    table = multigraded_betti(edge_ideal(_xy_graph(*shape, weights)), field)
    print(head, end="")
    if mode == "both" and table != formula:
        return _report_mismatch(table, formula)
    _emit(table.graded(), _rows(table), table.variables, args)
    return EXIT_OK


def cmd_crown(args) -> int:
    _check_options(args, no_oracle="--mode formula" if args.mode == "formula" else "")
    params = _parse_ints(args.n, "n must be an integer, got {!r}", maxsplit=0)
    return _shape_report(*_shape("crown", params, args.weights), args, args.mode)


def _report_mismatch(oracle: BettiTable, formula: BettiTable) -> int:
    """Print the first entry where the two tables differ; the mismatch code."""
    i, a = oracle.differences(formula)[0]
    print(
        f"mismatch at beta_({i}, {a}): oracle={oracle.entry(i, a)} "
        f"formula={formula.entry(i, a)}",
        file=sys.stderr,
    )
    return EXIT_MISMATCH


def _first_repeat(items):
    """The first item equal to an earlier one (None if none is), in one pass."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


def load_graph_document(path: str) -> WeightedOrientedGraph:
    """Parse a graph interchange document.

    Schema: {"vertices": [label, ...], "edges": [[tail, head], ...],
    "weights": {vertex: positive integer, ...}}; labels are non-empty strings
    without '*', '^' or whitespace, weights default to 1, no other key is
    allowed and no key or edge may repeat.  A file that is
    not UTF-8 JSON, nests deeper than the parser recurses, or holds an
    integer too long to convert, is refused.
    """

    def unique_keys(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            repeated = _first_repeat(k for k, _ in pairs)
            raise UsageError(f"{path}: key {repeated!r} is given more than once")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
        raise UsageError(f"{path}: {exc}")
    except RecursionError:
        raise UsageError(f"{path}: the document nests too deeply to parse")
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
    for label in vertices:  # a monomial is written as labels joined by "*", each "^" a power
        if label.split() != [label] or "*" in label or "^" in label:
            raise UsageError(
                f"{path}: vertex label {label!r} is empty or holds '*', '^' or whitespace, "
                "which would make its monomials ambiguous"
            )
    edge_set = frozenset(map(tuple, edges))
    if len(edge_set) < len(edges):
        repeated = _first_repeat(map(tuple, edges))
        raise UsageError(f"{path}: edge {list(repeated)} is listed more than once")
    weights = data.get("weights", {})
    if not isinstance(weights, dict):
        raise UsageError(f"{path}: weights must be an object")
    try:
        return WeightedOrientedGraph(VariableSet(tuple(vertices)), edge_set, weights)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}")


def cmd_graph(args) -> int:
    _check_options(args)
    graph = load_graph_document(args.input)
    ideal = edge_ideal(graph)
    if ideal.is_zero():
        raise UsageError("empty edge ideal: the graph has no edges")
    field = _parse_field(args.field)
    try:
        table = multigraded_betti(ideal, field)
    except ValueError as exc:  # a lattice or a table past the cap
        raise UsageError(str(exc))
    _emit(table.graded(), _rows(table), table.variables, args)
    return EXIT_OK


def cmd_family(args) -> int:
    _check_options(args, "" if args.oracle else "family without --oracle", table=args.oracle)
    params = _parse_ints(args.params, "params must be comma-separated integers, got {!r}")
    shape, weights = _shape(args.kind, params, args.weights)
    top = family_top_betti(args.kind.replace("-", "_"), params, weights)
    head = f"pdim: {top.pdim}\ntop multidegree: {top.top_multidegree}\ntop value: {top.top_value}\n"
    if not args.oracle:
        print(head, end="")
        return EXIT_OK
    code = _shape_report(shape, weights, args, "both", head)
    print(f"table check: {'pass' if code == EXIT_OK else 'FAIL'}")
    return code


def cmd_verify(args) -> int:
    from . import checks  # only verify runs the checks: other commands never compile them

    field = _parse_field(args.field)
    bounds = _parse_ints(args.n, "bad range {!r}; expected N or LO..HI", "..", maxsplit=1)
    lo, hi = bounds[0], bounds[-1]
    if hi > 7:
        raise UsageError(f"oracle verification is guarded at n <= 7, got {hi}")
    _shape("crown", (lo,), None)
    if lo > hi:
        raise UsageError(f"bad range {args.n!r}: need LO <= HI")
    (n_max,) = _parse_ints(args.n_max, "n-max must be an integer, got {!r}", maxsplit=0)
    if n_max < 2:
        raise UsageError(f"the identity check needs --n-max >= 2, got {n_max}")
    if n_max > 100:
        raise UsageError(f"the identity check is guarded at --n-max <= 100, got {n_max}")
    # every weight row is parsed for every n before any check runs
    matrices = {
        n: checks.default_weight_matrix(n)
        if args.weights == "default"
        else [_shape("crown", (n,), row)[1] for row in args.weights.split(";")]
        for n in range(lo, hi + 1)
    }
    results: list[tuple[str, list[str]]] = []
    for n, matrix in matrices.items():
        for weights in matrix:
            label = f"n={n} w={','.join(str(w) for w in weights)}"
            results.append(
                (f"formula-vs-oracle {label}", checks.check_formula_vs_oracle(n, weights, field))
            )
            if n >= 3:
                results.append(
                    (f"crown-splitting {label}", checks.check_crown_splitting(n, weights, field))
                )
                results.append((f"colon-chain {label}", checks.check_colon_chain(n, weights)))
        results.append((f"restriction n={n}", checks.check_restriction(n, matrix[0], field)))
    results.append((f"binomial-identity n<={n_max}", checks.check_binomial_identity(n_max)))
    for name, failures in results:
        print(f"FAIL {name}: {failures[0]}" if failures else f"PASS {name}")
    failed = sum(1 for _, failures in results if failures)
    print(json.dumps({"checks": len(results), "failures": failed}, sort_keys=True))
    return EXIT_OK if failed == 0 else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crownbetti",
        description="Betti numbers of edge ideals of weighted oriented crown graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table_options(p):
        p.add_argument("--field", help=FIELD_HELP)
        p.add_argument("--raw", action="store_true", help="emit (i, j, count) triples instead of a diagram")
        p.add_argument("--multigraded", action="store_true", help="include the full multigraded table")

    def add_common(p):
        add_table_options(p)
        p.add_argument("--output", choices=("text", "json"), default="text")

    p_crown = sub.add_parser("crown", help="Betti data of a crown edge ideal")
    p_crown.add_argument("--n", required=True)
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
    p_family.set_defaults(func=cmd_family, output="text")  # no --output: a text report

    p_verify = sub.add_parser("verify", help="formula-vs-oracle verification sweep")
    p_verify.add_argument("--n", default="2..4", help="range of crown sizes, e.g. 2..4")
    p_verify.add_argument("--weights", default="default",
                          help="'default' or semicolon-separated weight vectors")
    p_verify.add_argument("--field", help=FIELD_HELP)
    p_verify.add_argument("--n-max", default="12",
                          help="upper bound for the binomial identity check that ends the sweep")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a command's tables are many small acyclic containers that the cyclic
    # collector would walk again and again; it is back on when the command ends
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the exit flush writes what is left to devnull, so it cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
