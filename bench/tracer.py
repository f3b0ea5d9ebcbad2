"""Spans and work counts at the public boundaries of slamlog's layers.

The tracer wraps functions from outside the package: it replaces a public
name in every loaded slamlog module that holds it, so calls made inside the
package are seen too, and puts every original back on `uninstall`.  A
span's self time is its duration minus the time covered by its child spans
on the same thread.  Counters are updated under a lock, because sweeps run
their checks on worker threads.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] | None = None     # set to a list to record
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []
        self._next_id = 0

    # -- counters -------------------------------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.values[key] += amount

    def take(self) -> dict[str, float]:
        """The counters so far, which are then reset."""
        with self._lock:
            out = dict(self.values)
            self.values.clear()
        return out

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        frame = [0.0, span_id]
        stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, name, frame, start) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][0] += duration
        with self._lock:
            self.values[name + ".calls"] += 1
            self.values[name + ".self_s"] += duration - frame[0]
            if self.spans is not None:
                parent = stack[-1][1] if stack else None
                self.spans.append((frame[1], parent, name, start, end,
                                   threading.get_ident()))
        return duration

    def wrap(self, name, fn, after=None, on_error=None):
        """A function that runs `fn` inside a span.  `after(tracer, args,
        result)` records counts from a result; `on_error(tracer, exc,
        duration)` from an exception, which is then re-raised."""
        def traced(*args, **kwargs):
            frame, start = self._open()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                duration = self._close(name, frame, start)
                if on_error is not None:
                    on_error(self, exc, duration)
                raise
            self._close(name, frame, start)
            if after is not None:
                after(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name, fn):
        """A generator function whose every step runs inside a span."""
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame, start = self._open()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(name, frame, start)
                yield item
        traced.__wrapped__ = fn
        return traced

    # -- patching -------------------------------------------------------------

    def patch_function(self, original, replacement, package="slamlog"):
        """Replace `original` by `replacement` wherever a loaded module of
        the package holds it under some name."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or
                                      mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def patch_method(self, cls, attr, replacement):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _tuple_count(structure) -> int:
    return sum(len(rel) for rel in structure.relations)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of polymorph, homsolver, datalog and
    classify.  slamlog must already be imported."""
    classify, datalog, homsolver, polymorph = (
        importlib.import_module(f"slamlog.{name}")
        for name in ("classify", "datalog", "homsolver", "polymorph"))

    t = tracer

    def fn(module, attr, name, after=None, on_error=None):
        original = getattr(module, attr)
        t.patch_function(original, t.wrap(name, original, after, on_error))

    def method(cls, attr, name, after=None):
        t.patch_method(cls, attr, t.wrap(name, cls.__dict__[attr], after))

    fn(polymorph, "closure_partition", "polymorph.closure_partition",
       after=lambda t, a, r: t.add("polymorph.closure_partition.codes",
                                   a[1] ** a[0].arity))

    def indicator_counts(t, a, r):
        t.add("polymorph.indicator.elements", r[0].size)
        t.add("polymorph.indicator.tuples", _tuple_count(r[0]))
    fn(polymorph, "indicator_structure", "polymorph.indicator",
       after=indicator_counts)

    method(polymorph.OperationTable, "satisfies", "polymorph.witness_check")
    method(polymorph.OperationTable, "is_polymorphism_of",
           "polymorph.witness_check")

    def absorptive_counts(t, a, r):
        if r.strategy == "setsystem":
            t.add("polymorph.absorptive.setsystem_elements", r.indicator_size)

    def absorptive_capped(t, exc, duration):
        if isinstance(exc, polymorph.CapExceeded):
            t.add("polymorph.absorptive.capped")
            t.add("polymorph.absorptive.capped_s", duration)
    fn(polymorph, "absorptive_check", "polymorph.absorptive",
       after=absorptive_counts, on_error=absorptive_capped)

    fn(polymorph, "subset_power_structure", "polymorph.subset_power",
       after=lambda t, a, r: t.add("polymorph.subset_power.elements",
                                   r.size))
    fn(polymorph, "lattice_polymorphisms", "polymorph.lattice")

    method(homsolver.HomSearcher, "find", "homsolver.find",
           after=lambda t, a, r: t.add("homsolver.find.source_elements",
                                       a[1].size))
    method(homsolver.HomSearcher, "arc_consistency", "homsolver.ac")
    fn(homsolver, "core_of", "homsolver.core")
    fn(homsolver, "is_core", "homsolver.core")

    def evaluate_counts(t, a, r):
        t.add("datalog.evaluate.facts", len(r.facts))
        t.add("datalog.evaluate.goal_calls", int(r.goal))
        if r.trace is not None:
            t.add("datalog.trace.steps", len(r.trace.steps))
    fn(datalog, "evaluate", "datalog.evaluate", after=evaluate_counts)
    fn(datalog, "fragment_of", "datalog.fragment_of")
    fn(datalog, "canonical_program", "datalog.canonical_program",
       after=lambda t, a, r: t.add("datalog.canonical_program.rules",
                                   len(r.rules)))

    def classify_times(t, a, r):
        for key in ("tree_duality", "quasi_maltsev"):
            t.add(f"classify.{key}_s", r.timing_ms.get(key, 0.0) / 1e3)
        t.add("classify.caterpillar_s",
              r.timing_ms.get("caterpillar_lam", 0.0) / 1e3)
    fn(classify, "classify", "classify.classify", after=classify_times)

    def sweep_counts(t, a, r):
        t.add("classify.sweep.instances", r.checked)
        t.add("classify.sweep.counterexamples", len(r.counterexamples))
    fn(classify, "verify_duality_pair", "classify.sweep", after=sweep_counts)
    fn(classify, "verify_program_solves", "classify.sweep",
       after=sweep_counts)

    # The sweep's instance stream, which covers enumerate_instances (sizes
    # up to 3) and the loopless size-4 instances.  Wrapped by name, so that
    # a renamed stream stops the traced run instead of timing another one.
    stream = classify._sweep_instances
    t.patch_function(stream, t.wrap_generator("classify.sweep.enumerate",
                                              stream))
