"""Spans around foliage's public functions, recorded from outside the package.

`traced(recorder)` wraps every public module-level function of the layer
modules and installs the wrapper on the defining module and on every foliage
module that rebinds the same function object (`from .x import name`), so
calls between modules are seen too. Wrappers record a span only while an
operation is open; checks and set-up pass through them unrecorded. Spans stay
in memory as parallel arrays (name, start, end, parent, operation) and are
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("scalar", "orbifold", "forms", "leaves", "graph", "surgery", "cli")
OP_SPAN = "op"


class Recorder:
    def __init__(self):
        self.names: list[str] = [OP_SPAN]
        self.name: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.op_of: array = array("i")
        self.stack: list[int] = []
        self.op = -1  # id of the open operation; -1 records nothing
        self.raised: Counter = Counter()  # (name, exception type) -> count
        self.traces: list[tuple[int, int, bool]] = []  # (span, steps, bumped)

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.op)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    @contextmanager
    def operation(self, op_id: int):
        self.op = op_id
        i = self.open(0)
        try:
            yield
        finally:
            self.close(i)
            self.op = -1

    def self_times(self) -> tuple[Counter, Counter]:
        """Per span name: total self time (duration minus child durations) and calls."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for i, n in enumerate(self.name):
            name = self.names[n]
            self_s[name] += self.end[i] - self.start[i] - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path) -> None:
        """CSV of every span; times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_us,end_us,parent\n")
            for i, n in enumerate(self.name):
                fh.write(
                    f"{self.op_of[i]},{self.names[n]},{(self.start[i] - t0) * 1e6:.3f},"
                    f"{(self.end[i] - t0) * 1e6:.3f},{self.parent[i]}\n"
                )


def _record_trace(rec: Recorder, span: int, args, result) -> None:
    rec.traces.append((span, result.steps, bool(args[0].bumps)))


def _wrap(rec: Recorder, name: str, fn):
    name_id = rec.name_id(name)
    hook = _record_trace if name == "leaves.trace_leaf" else None

    @functools.wraps(fn)
    def traced_call(*args, **kwargs):
        if rec.op < 0:
            return fn(*args, **kwargs)
        i = rec.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            rec.raised[(name, type(err).__name__)] += 1
            raise
        finally:
            rec.close(i)
        if hook is not None:
            hook(rec, i, args, result)
        return result

    return traced_call


def public_functions():
    """(layer.name, function) for every public function each layer defines."""
    for layer in LAYERS:
        module = importlib.import_module(f"foliage.{layer}")
        for name, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                yield f"{layer}.{name}", obj


@contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "foliage" or n.startswith("foliage.")]
    patched = []
    try:
        for name, fn in list(public_functions()):
            wrapper = _wrap(rec, name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, fn))
        yield
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)


def layer_metrics(rec: Recorder, wanted: list[dict], ops: int, overhead_ratio: float) -> dict:
    """Values for the per-layer metrics BENCHMARK.json declares, by name suffix."""
    self_s, calls = rec.self_times()
    steps = {True: 0, False: 0}
    trace_s = {True: 0.0, False: 0.0}
    for span, n, bumped in rec.traces:
        steps[bumped] += n
        trace_s[bumped] += rec.end[span] - rec.start[span]
    values = {}
    for metric in wanted:
        name = metric["name"]
        fn, _, what = name.rpartition(".")
        if name == "trace.overhead_ratio":
            value = overhead_ratio
        elif name == "leaves.trace_leaf.steps":
            value = (steps[True] + steps[False]) / ops
        elif fn == "leaves.trace_leaf.us_per_step":
            bumped = what == "bumped"
            value = trace_s[bumped] / steps[bumped] * 1e6 if steps[bumped] else 0.0
        elif what == "self_s":
            value = self_s[fn] / ops
        elif what == "calls":
            value = calls[fn]
        elif what == "calls_per_op":
            value = calls[fn] / ops
        elif what == "precision_failures":
            value = rec.raised[(fn, "PrecisionExhausted")]
        else:
            raise ValueError(f"no rule computes per-layer metric {name!r}")
        values[name] = {"value": value, "unit": metric["unit"]}
    return values
