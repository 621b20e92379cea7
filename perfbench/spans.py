"""Spans around stabcheck's public functions, recorded from outside the program.

Each target is replaced, for the length of a traced run, at the module where
its caller looks the name up: checker.py calls `expectation` through its own
globals, so the wrapper goes on `stabcheck.checker.expectation`, not on
`stabcheck.tableau.expectation`.  A span is (name, start, end, parent) in
flat arrays; `flush` turns the finished spans into per-name call counts and
self time (a span's duration minus the durations of its direct children)
and empties the arrays, so memory stays bounded by one check.  A target
that no longer exists is listed in `absent` and its metrics read zero.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict

# (module, attribute, span name).  The span name's prefix is its layer.
TARGETS = (
    ("stabcheck.cli", "main", "cli.main"),
    ("stabcheck.cli", "parse", "protocol.parse"),
    ("stabcheck.cli", "validate", "protocol.validate"),
    ("stabcheck.cli", "errors_of", "protocol.errors_of"),
    ("stabcheck.cli", "builtin_identity", "protocol.builtin_identity"),
    ("stabcheck.protocol", "parse", "protocol.parse"),
    ("stabcheck.protocol", "builtin_identity", "protocol.builtin_identity"),
    ("stabcheck.checker", "validate", "protocol.validate"),
    ("stabcheck.checker", "errors_of", "protocol.errors_of"),
    ("stabcheck.checker", "enumerate_basis", "basis.enumerate_basis"),
    ("stabcheck.basis", "enumerate_basis", "basis.enumerate_basis"),
    ("stabcheck.basis", "basis_index", "basis.basis_index"),
    ("stabcheck.checker", "new_zero_state", "tableau.new_zero_state"),
    ("stabcheck.checker", "apply_gate", "tableau.apply_gate"),
    ("stabcheck.checker", "measure_z", "tableau.measure_z"),
    ("stabcheck.checker", "expectation", "tableau.expectation"),
    ("stabcheck.checker", "run_protocol", "checker.run_protocol"),
    ("stabcheck.checker", "fingerprint", "checker.fingerprint"),
    ("stabcheck.checker", "check_equivalence", "checker.check_equivalence"),
    ("stabcheck.checker", "fingerprint_dense", "dense.fingerprint_dense"),
    ("stabcheck.checker", "run_protocol_dense", "dense.run_protocol_dense"),
    ("stabcheck.dense", "zero_state", "dense.zero_state"),
    ("stabcheck.dense", "apply_gate_dense", "dense.apply_gate_dense"),
    ("stabcheck.dense", "project_z", "dense.project_z"),
    ("stabcheck.dense", "run_dense", "dense.run_dense"),
    ("stabcheck.dense", "reduced_density", "dense.reduced_density"),
    ("stabcheck.dense", "density_from_branches", "dense.density_from_branches"),
    ("stabcheck.dense", "pauli_matrix", "dense.pauli_matrix"),
    ("stabcheck.dense", "pauli_expect_dense", "dense.pauli_expect_dense"),
    ("stabcheck.dense", "pauli_expect_state", "dense.pauli_expect_state"),
)

# The time of a collapse returned by measure_z counts as measurement time.
COLLAPSE = "tableau.measure_z.collapse"


class Tracer:
    """Install with `with Tracer() as tracer:`; originals are restored on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.absent: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        # Work counts read from return values at the same boundaries.
        self.counts: dict[str, int] = defaultdict(int)
        self._ids: dict[str, int] = {}
        self._span_names: list[str] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _sid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._span_names)
            self._span_names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, post=None):
        """fn, recording one span per call; post(result) may replace the result."""
        sid = self._sid(name)
        names, parents, starts, ends, stack = self._name, self._parent, self._start, self._end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            return result if post is None else post(result)

        return traced

    def _post(self, name: str):
        counts = self.counts
        if name == "tableau.expectation":
            def post(value):
                if value:
                    counts["expectation_nonzero"] += 1
                return value
        elif name == "tableau.measure_z":
            def post(result):
                resolution, collapse = result
                return resolution, self.wrap(collapse, COLLAPSE)
        elif name == "checker.run_protocol":
            def post(branches):
                counts["branches"] += len(branches)
                return branches
        elif name == "checker.fingerprint":
            def post(fp):
                counts["entries"] += sum(len(row) for row in getattr(fp, "table", ()))
                return fp
        elif name == "basis.enumerate_basis":
            def post(circuits):
                counts["inputs"] += len(circuits)
                return circuits
        else:
            post = None
        return post

    def __enter__(self) -> "Tracer":
        for module_name, attr, name in self.targets:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, self._post(name)))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def flush(self) -> None:
        """Fold finished spans into calls and self time; call between checks."""
        if len(self._stack) != 1:
            raise RuntimeError("flush called inside an open span")
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        span_names, calls, self_ns = self._span_names, self.calls, self.self_ns
        for i in range(len(names)):
            name = span_names[names[i]]
            duration = ends[i] - starts[i]
            calls[name] += 1
            self_ns[name] += duration
            if parents[i] >= 0:
                self_ns[span_names[names[parents[i]]]] -= duration
        for buf in (names, parents, starts, ends):
            del buf[:]

    def self_s(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if name.split(".")[0] == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == layer) / 1e9
