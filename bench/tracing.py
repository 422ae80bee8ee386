"""Outside-in tracing of linsuper: spans around the public functions of each module.

`Tracer.install()` wraps the functions listed in `TRACED` and rebinds every
name under which a `linsuper` module holds them (for example
`linsuper.paths.kernel_basis` and `linsuper.represent.kernel_basis` both hold
`linalg.kernel_basis`), so calls made inside the library are seen as well as
calls made by the benchmark. Nothing in the library is edited.

Each call becomes a span with a name, a duration and its parent span. A
span's self time is its duration minus the durations of its child spans.
Work the tracer does itself (the hooks below) is subtracted from every open
span, so it shows only as tracing overhead in the end-to-end wall time.

Spans are recorded only while `enabled` is set; the benchmark clears it
around its output checks so that checking work is not counted, and
`uninstall()` puts the original functions back for untraced passes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# module -> public functions wrapped in that module
TRACED = {
    "linalg": ("rref", "kernel_basis", "solve", "rank"),
    "model": ("build_incidence", "build_level_classes", "quantize_family"),
    "paths": (
        "detect",
        "verify_certificate",
        "is_closed_path",
        "certify_minimal",
        "find_minimal_within",
        "decompose_functional",
        "enumerate_minimal",
    ),
    "represent": ("is_representable", "representable_by_orthogonality", "make_witness"),
    "ridge": ("ridge_instance", "classify_ni", "hypercube_path", "generate_pathfree_example"),
    "rationals": ("parse_rational",),
    "cli": ("main", "load_instance", "parse_instance_text", "render_report"),
}

# per-layer metric -> unit; the names and units BENCHMARK.json lists under per_layer
LAYER_METRICS = {
    "linalg.rref_s": "s",
    "linalg.rref_cells": "cells",
    "linalg.max_entry_bits": "bits",
    "linalg.nullity_sum": "count",
    "linalg.rref_calls": "count",
    "linalg.kernel_basis_calls": "count",
    "linalg.solve_calls": "count",
    "paths.dfs_nodes": "count",
    "paths.circuits_found": "count",
    "paths.circuit_yield": "ratio",
    "paths.certify_minimal_calls": "count",
    "paths.certify_minimal_s": "s",
    "paths.enumerate_s": "s",
    "paths.detect_s": "s",
    "paths.verify_s": "s",
    "represent.is_representable_s": "s",
    "represent.solve_s": "s",
    "represent.kernel_fallback_calls": "count",
    "represent.witness_s": "s",
    "model.build_incidence_s": "s",
    "model.build_incidence_calls": "count",
    "model.matrix_cells": "cells",
    "model.quantize_s": "s",
    "model.quantize_merges": "count",
    "ridge.instance_s": "s",
    "ridge.classify_s": "s",
    "ridge.hypercube_s": "s",
    "rationals.parse_calls": "count",
    "rationals.parse_s": "s",
    "cli.main_s": "s",
    "cli.load_s": "s",
    "cli.render_s": "s",
    "cli.calls": "count",
}

# span name -> inclusive-time metric
_INCLUSIVE = {
    "paths.certify_minimal": "paths.certify_minimal_s",
    "paths.enumerate_minimal": "paths.enumerate_s",
    "paths.detect": "paths.detect_s",
    "paths.verify_certificate": "paths.verify_s",
    "represent.is_representable": "represent.is_representable_s",
    "represent.make_witness": "represent.witness_s",
    "model.build_incidence": "model.build_incidence_s",
    "model.quantize_family": "model.quantize_s",
    "ridge.ridge_instance": "ridge.instance_s",
    "ridge.classify_ni": "ridge.classify_s",
    "ridge.hypercube_path": "ridge.hypercube_s",
    "rationals.parse_rational": "rationals.parse_s",
    "cli.load_instance": "cli.load_s",
    "cli.render_report": "cli.render_s",
}
# span name -> self-time metric
_SELF = {"linalg.rref": "linalg.rref_s", "cli.main": "cli.main_s"}
# span name -> call-count metric
_CALLS = {
    "linalg.rref": "linalg.rref_calls",
    "linalg.kernel_basis": "linalg.kernel_basis_calls",
    "linalg.solve": "linalg.solve_calls",
    "paths.certify_minimal": "paths.certify_minimal_calls",
    "model.build_incidence": "model.build_incidence_calls",
    "rationals.parse_rational": "rationals.parse_calls",
    "cli.main": "cli.calls",
}


def _entry_bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class _Span:
    __slots__ = ("name", "start", "hook_mark", "child", "exhaustive")

    def __init__(self, name: str, start: float, hook_mark: float, exhaustive: bool) -> None:
        self.name = name
        self.start = start
        self.hook_mark = hook_mark
        self.child = 0.0
        self.exhaustive = exhaustive


class Tracer:
    """Span recorder for one process; aggregates per span name and per metric."""

    def __init__(self) -> None:
        self.enabled = False
        self._stack: list[_Span] = []
        self._open = Counter()  # span name -> how many spans of that name are open
        self._exhaustive_depth = 0
        self._hook_s = 0.0
        self._bindings: list[tuple] = []  # (module, attribute, original, wrapper)
        self.reset()

    def reset(self) -> None:
        """Forget everything recorded so far (called at the start of each pass)."""
        self.calls = Counter()
        self.total_s = Counter()  # outermost spans only, so recursion is not double counted
        self.self_s = Counter()
        self.metrics = Counter()

    def install(self) -> None:
        """Bind the wrappers under every name a linsuper module holds the originals by."""
        if not self._bindings:
            wrapped = {}
            for module_name, names in TRACED.items():
                module = sys.modules[f"linsuper.{module_name}"]
                for name in names:
                    original = getattr(module, name)
                    wrapped[id(original)] = (original, self._wrap(f"{module_name}.{name}", original))
            for module_name, module in list(sys.modules.items()):
                if module_name != "linsuper" and not module_name.startswith("linsuper."):
                    continue
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        self._bindings.append((module, attr) + wrapped[id(value)])
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        self.enabled = True

    def uninstall(self) -> None:
        """Put the original functions back."""
        self.enabled = False
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def _wrap(self, name: str, fn):
        tracer = self
        is_enumerate = name == "paths.enumerate_minimal"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            exhaustive = False
            if is_enumerate:
                mode = kwargs.get("mode", args[2] if len(args) > 2 else "fundamental")
                exhaustive = mode == "exhaustive"
            span = tracer._enter(name, exhaustive)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(span, time.perf_counter(), args, None, failed=True)
                raise
            tracer._exit(span, time.perf_counter(), args, result)
            return result

        return traced

    def _enter(self, name: str, exhaustive: bool) -> _Span:
        span = _Span(name, time.perf_counter(), self._hook_s, exhaustive)
        self._stack.append(span)
        self._open[name] += 1
        if exhaustive:
            self._exhaustive_depth += 1
        return span

    def _exit(self, span: _Span, end: float, args, result, failed: bool = False) -> None:
        hook_start = time.perf_counter()
        self._stack.pop()
        self._open[span.name] -= 1
        if span.exhaustive:
            self._exhaustive_depth -= 1
        duration = end - span.start - (self._hook_s - span.hook_mark)
        name = span.name
        self.calls[name] += 1
        self.self_s[name] += duration - span.child
        if not self._open[name]:
            self.total_s[name] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.child += duration
        if not failed:
            self._count(name, duration, parent, args, result, span)
        self._hook_s += time.perf_counter() - hook_start

    def _count(self, name, duration, parent, args, result, span) -> None:
        m = self.metrics
        if name in _CALLS:
            m[_CALLS[name]] += 1
        if name in _INCLUSIVE and not self._open[name]:
            m[_INCLUSIVE[name]] += duration
        if name in _SELF:
            m[_SELF[name]] += duration - span.child
        if name == "linalg.rref":
            matrix = args[0]
            m["linalg.rref_cells"] += matrix.rows * matrix.cols
            bits = max(map(_entry_bits, result[0].entries), default=0)
            if bits > m["linalg.max_entry_bits"]:
                m["linalg.max_entry_bits"] = bits
        elif name == "linalg.kernel_basis":
            m["linalg.nullity_sum"] += len(result)
            if self._exhaustive_depth:
                m["paths.dfs_nodes"] += 1
            if parent is not None and parent.name == "represent.is_representable":
                m["represent.kernel_fallback_calls"] += 1
        elif name == "linalg.solve":
            if self._open["represent.is_representable"]:
                m["represent.solve_s"] += duration
        elif name == "paths.enumerate_minimal":
            if span.exhaustive:
                m["paths.circuits_found"] += len(result)
        elif name == "model.build_incidence":
            m["model.matrix_cells"] += result.matrix.rows * result.matrix.cols
        elif name == "model.quantize_family":
            m["model.quantize_merges"] += len(result[1])

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric for what was recorded since the last reset."""
        out = {name: float(self.metrics.get(name, 0)) for name in LAYER_METRICS}
        nodes = out["paths.dfs_nodes"]
        out["paths.circuit_yield"] = out["paths.circuits_found"] / nodes if nodes else 0.0
        return out

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        return {
            name: {
                "calls": self.calls[name],
                "total_s": self.total_s[name],
                "self_s": self.self_s[name],
            }
            for name in sorted(self.calls)
        }
