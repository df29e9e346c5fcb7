"""Per-function spans for the traced benchmark run.

The program itself carries no instrumentation.  :func:`install` replaces each
public function named in :data:`TRACED` by a wrapper that records a span
around the call, on every ``hyperstate`` module that binds the function.
``construct``, ``io``, ``certify``, ``witness`` and ``degree`` import names
directly, so patching only the defining module would miss the calls one layer
makes into another.

Spans nest on a single stack (the program is single-threaded Python), so a
span's self time is its duration minus the time covered by the spans it
caused.  Only per-function aggregates are kept: calls, total and self time,
calls that raised, plus a few work counters worked out from arguments and
results.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
from time import perf_counter
from typing import Any, Callable

TRACED: dict[str, tuple[str, ...]] = {
    "state": ("make_state", "slice_family", "inner"),
    "bilinear": ("unfold", "numerical_rank", "schmidt_decompose", "reduced_density"),
    "certify": (
        "hyperentanglement_test",
        "cyclicity_test",
        "window_certificate",
        "cube_window",
    ),
    "construct": (
        "method1_build",
        "method2_extend",
        "method2_build",
        "repair_bipartite",
        "paper_state",
    ),
    "witness": ("correlation_witness", "conditional_probability"),
    "degree": ("degree_bipartite", "degree_multipartite"),
    "io": ("save_state", "load_state", "load_projector", "canonical_report_json"),
    "cli": ("run_cli",),
}

# name -> unit for the per-function fields.
FIELDS = {"calls": "count", "total_s": "s", "self_s": "s", "errors": "count"}


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _svd_shape(args: tuple, kwargs: dict) -> tuple[int, int]:
    matrix = _arg(args, kwargs, 0, "matrix")
    m, n = getattr(matrix, "matrix", matrix).shape
    return max(m, n), min(m, n)


def _svd_flops(args: tuple, kwargs: dict, out: Any) -> int:
    # Textbook count for the singular values of a real m x n matrix
    # (m >= n) is 4mn^2 - 4n^3/3; complex arithmetic costs four times that.
    m, n = _svd_shape(args, kwargs)
    return 4 * (4 * m * n * n - (4 * n**3) // 3)


def _file_bytes(pos: int) -> Callable[[tuple, dict, Any], int]:
    def count(args: tuple, kwargs: dict, out: Any) -> int:
        return os.path.getsize(_arg(args, kwargs, pos, "path"))

    return count


# "module.function" -> ((counter, unit, count(args, kwargs, result)), ...)
COUNTERS: dict[str, tuple[tuple[str, str, Callable[[tuple, dict, Any], int]], ...]] = {
    "state.make_state": (("entries", "count", lambda a, k, out: out.nnz),),
    "state.slice_family": (
        # Bytes of the dense complex128 slice vectors the family holds.
        ("dense_bytes", "B", lambda a, k, out: len(out.nonzero) * out.part_dim * 16),
    ),
    "bilinear.numerical_rank": (
        ("elements", "count", lambda a, k, out: math.prod(_svd_shape(a, k))),
        ("flops_computed", "flop", _svd_flops),
    ),
    "certify.window_certificate": (("rows", "count", lambda a, k, out: out.size),),
    "io.save_state": (("bytes", "B", _file_bytes(1)),),
    "io.load_state": (("bytes", "B", _file_bytes(0)),),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the recorder reports, with its unit."""
    units = {}
    for module, names in TRACED.items():
        for name in names:
            for field, unit in FIELDS.items():
                units[f"{module}.{name}.{field}"] = unit
    for key, counters in COUNTERS.items():
        for counter, unit, _ in counters:
            units[f"{key}.{counter}"] = unit
    return units


class SpanRecorder:
    """Aggregates spans per traced function; see :func:`install`."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.errors: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        # Time covered by the children of each span still open.
        self._open: list[float] = []

    def wrap(self, key: str, fn: Callable) -> Callable:
        for table in (self.calls, self.total_s, self.self_s, self.errors):
            table[key] = 0
        counters = COUNTERS.get(key, ())
        for counter, _, _ in counters:
            self.counters[f"{key}.{counter}"] = 0
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            open_spans.append(0.0)
            raised = True
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                took = perf_counter() - start
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += took
                self.calls[key] += 1
                self.total_s[key] += took
                self.self_s[key] += took - children
                self.errors[key] += raised
            for counter, _, count in counters:
                self.counters[f"{key}.{counter}"] += count(args, kwargs, out)
            return out

        return traced

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for key in self.calls:
            out[f"{key}.calls"] = self.calls[key]
            out[f"{key}.total_s"] = self.total_s[key]
            out[f"{key}.self_s"] = self.self_s[key]
            out[f"{key}.errors"] = self.errors[key]
        out.update(self.counters)
        return out


def install(recorder: SpanRecorder) -> None:
    """Wrap every function in :data:`TRACED` wherever ``hyperstate`` binds it.

    All submodules are imported first, so imports made later inside the
    program (the CLI imports its handlers' dependencies lazily) pick up the
    wrapped functions.
    """
    for module in TRACED:
        importlib.import_module(f"hyperstate.{module}")
    namespaces = [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "hyperstate" or name.startswith("hyperstate.")
    ]
    for module, names in TRACED.items():
        home = sys.modules[f"hyperstate.{module}"]
        for name in names:
            original = getattr(home, name)
            wrapped = recorder.wrap(f"{module}.{name}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapped)
