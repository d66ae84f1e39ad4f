"""Span tracing at the public boundaries of the crownbetti modules.

The tracer wraps each boundary from the outside: it replaces the function
(or method) with a wrapper that records one span per call, and puts the
original back when tracing ends.  Spans are kept in memory and written out
once, when the run ends.  Nothing here imports numpy or crownbetti at
module level, so importing this file costs nothing the set-up time would see.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


def _count_lattice(counts, args, result):
    counts["ideals.lattice_points"] += len(result)


def _count_matrix(counts, args, result):
    matrix = args[1]
    rows, cols = matrix.shape
    counts["linalg.rank_calls"] += 1
    counts["linalg.matrix_cells"] += rows * cols
    counts["linalg.matrix_nnz"] += int((matrix != 0).sum())
    counts["linalg.max_dim"] = max(counts["linalg.max_dim"], rows, cols)


def _count_selections(counts, args, result):
    counts["formulas.selections"] += len(result)


def _count_generators(counts, args, result):
    counts["graphs.generators"] += len(result.generators)


@dataclass(frozen=True)
class Boundary:
    """One public function or method of one module, wrapped as a span.

    ``count_only`` boundaries are counted, not timed: they are called too
    often (``lcm`` about 10^5 times per crown table) for a span each, and
    only the calls bound in ``module`` itself are counted.
    """

    span: str
    module: str
    attr: str
    observe: Optional[Callable] = None
    count_only: bool = False


BOUNDARIES = (
    Boundary("multidegree.lcm", "crownbetti.ideals", "lcm", count_only=True),
    Boundary("ideals.lcm_lattice", "crownbetti.ideals", "lcm_lattice", _count_lattice),
    Boundary("graphs.edge_ideal", "crownbetti.graphs", "edge_ideal", _count_generators),
    Boundary("homology.multigraded_betti", "crownbetti.homology", "multigraded_betti"),
    Boundary("homology.graded", "crownbetti.homology", "BettiTable.graded"),
    Boundary("homology.total", "crownbetti.homology", "BettiTable.total"),
    Boundary("homology.pdim", "crownbetti.homology", "BettiTable.pdim"),
    Boundary("homology.regularity", "crownbetti.homology", "BettiTable.regularity"),
    Boundary("linalg.rank", "crownbetti.homology", "FieldSpec.rank", _count_matrix),
    Boundary(
        "formulas.multigraded_betti_formula",
        "crownbetti.formulas",
        "multigraded_betti_formula",
    ),
    Boundary("formulas.enumerate_N", "crownbetti.formulas", "enumerate_N", _count_selections),
    Boundary("formulas.enumerate_M", "crownbetti.formulas", "enumerate_M", _count_selections),
    Boundary("render.report_text", "crownbetti.render", "report_text"),
    Boundary("render.table_to_json_dict", "crownbetti.render", "table_to_json_dict"),
    Boundary("cli.main", "crownbetti.cli", "main"),
)

AGGREGATE_SPANS = (
    "homology.graded",
    "homology.total",
    "homology.pdim",
    "homology.regularity",
)


def _resolve(boundary: Boundary):
    """(owner, attribute name, original), or None if the boundary is gone."""
    try:
        owner = importlib.import_module(boundary.module)
        *path, name = boundary.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # a class's own __dict__ entry, so restoring never copies an
        # inherited attribute onto the class
        original = vars(owner)[name] if path else getattr(owner, name)
    except (ImportError, AttributeError, KeyError):
        return None
    if not callable(original):
        return None
    return owner, name, original


class Tracer:
    """Spans and counts of one traced run.

    A span is ``[name, start, end, parent, table]``: ``parent`` is the index
    of the enclosing span (None at top level) and ``table`` the label of the
    Betti table being computed when the span began.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.table: Optional[str] = None
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._origin = perf_counter()

    @contextmanager
    def installed(self):
        """Wrap every boundary that exists; restore the originals on exit."""
        restore = []
        self.absent = []
        try:
            for boundary in BOUNDARIES:
                found = _resolve(boundary)
                if found is None:
                    self.absent.append(boundary.span)
                    continue
                owner, name, original = found
                wrapper = self._wrap(boundary, original)
                if boundary.count_only or isinstance(owner, type):
                    targets = [(owner, name)]
                else:
                    targets = _bindings(original)
                for target, attr in targets:
                    restore.append((target, attr, getattr(target, attr)))
                    setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(restore):
                setattr(target, attr, original)

    def _wrap(self, boundary: Boundary, fn):
        span_name, observe, counts = boundary.span, boundary.observe, self.counts
        if boundary.count_only:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[span_name] += 1
                return fn(*args, **kwargs)

            return counted
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [span_name, 0.0, 0.0, stack[-1] if stack else None, self.table]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def times(self) -> tuple[Counter, Counter]:
        """Inclusive and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent] += end - start
        inclusive, own = Counter(), Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - children[k]
        return inclusive, own

    def layer_self_times(self) -> dict[str, float]:
        _, own = self.times()
        out: Counter = Counter()
        for name, seconds in own.items():
            out[name.split(".")[0]] += seconds
        return dict(out)

    def to_json(self) -> dict:
        return {
            "spans": [
                {
                    "name": name,
                    "start": start - self._origin,
                    "end": end - self._origin,
                    "parent": parent,
                    "table": table,
                }
                for name, start, end, parent, table in self.spans
            ],
            "counts": dict(self.counts),
            "layer_self_s": self.layer_self_times(),
            "absent": self.absent,
        }


def _bindings(fn) -> list[tuple[object, str]]:
    """Every crownbetti module attribute bound to ``fn``.

    ``from .x import f`` copies the binding, so a call from another module
    goes through that module's own name, which must be wrapped as well.
    """
    out = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (
            mod_name == "crownbetti" or mod_name.startswith("crownbetti.")
        ):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                out.append((module, attr))
    return out


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics that come from spans and counts alone."""
    inclusive, own = tracer.times()
    c = tracer.counts
    cells = c["linalg.matrix_cells"]
    return {
        "ideals.lattice_s": inclusive["ideals.lcm_lattice"],
        "ideals.lattice_points": c["ideals.lattice_points"],
        "multidegree.lcm_calls": c["multidegree.lcm"],
        "homology.oracle_s": inclusive["homology.multigraded_betti"],
        "homology.self_s": own["homology.multigraded_betti"],
        "homology.aggregate_s": sum(own[name] for name in AGGREGATE_SPANS),
        "linalg.rank_s": inclusive["linalg.rank"],
        "linalg.rank_calls": c["linalg.rank_calls"],
        "linalg.matrix_cells": cells,
        "linalg.matrix_nnz": c["linalg.matrix_nnz"],
        "linalg.density": c["linalg.matrix_nnz"] / cells if cells else 0.0,
        "linalg.max_dim": c["linalg.max_dim"],
        "formulas.formula_s": inclusive["formulas.multigraded_betti_formula"],
        "formulas.enumerate_s": inclusive["formulas.enumerate_N"]
        + inclusive["formulas.enumerate_M"],
        "formulas.selections": c["formulas.selections"],
        "render.text_s": own["render.report_text"],
        "render.json_s": own["render.table_to_json_dict"],
        "graphs.edge_ideal_s": inclusive["graphs.edge_ideal"],
        "graphs.generators": c["graphs.generators"],
        "cli.self_s": own["cli.main"],
    }
