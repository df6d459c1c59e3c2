"""In-memory spans around the calls into each cqbc module.

A Tracer keeps one record per call: span id, parent span id, name, start
and end. Wrappers are installed in every cqbc namespace that holds a public
function, so calls are caught where callers look them up: `protocol.substream`
as well as `rng.substream`, and `optics.sample_detectors` for its callers in
protocol, adversary and security alike.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

MODULES = ("rng", "optics", "protocol", "adversary", "security", "cli")

# The amplitude-level steps run_slot takes on every simulated slot. Wrapping
# them would add three spans per slot to the table Monte Carlo, so their
# time stays in run_slot's self time.
UNWRAPPED = {"optics.bs_forward", "optics.apply_switch", "optics.bs_return"}

# Work counters recorded next to the call count: name -> f(*args) -> count.
COUNTERS = {
    "optics.sample_detectors": lambda eq, *args, **kwargs: int(eq.size),
}


class Tracer:
    """Spans of one process, kept in memory until written out."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._next_id = 1

    def _open(self) -> tuple[int, int]:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        return span_id, parent

    @contextmanager
    def span(self, name: str):
        span_id, parent = self._open()
        start = perf_counter()
        try:
            yield
        except BaseException:
            self.errors[name] += 1
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[name + ".slots"] += counter(*args, **kwargs)
            span_id, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))

        return traced

    def root_seconds(self) -> float:
        """Total duration of the spans no other span caused."""
        return sum(end - start for _, parent, _, start, end in self.spans
                   if parent == 0)

    def layer_metrics(self) -> dict[str, float]:
        """<name>.calls, <name>.self_s and <name>.errors for every span
        name, plus the work counters."""
        out: dict[str, float] = {}
        for name, (calls, self_s) in self_times(self.spans).items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            out[name + ".errors"] = self.errors.get(name, 0)
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "name", "start_s", "end_s"])
            writer.writerows(self.spans)


def self_times(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds). A span's self time is its duration
    minus the durations of its direct children; spans of one thread nest,
    so the children cover disjoint parts of their parent."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        calls[name] += 1
        own[name] += (end - start) - child_time.get(span_id, 0.0)
    return {name: (calls[name], own[name]) for name in calls}


class Wrappers:
    """Traced versions of every public cqbc function, swapped in and out
    of each cqbc namespace that refers to the original."""

    def __init__(self, tracer: Tracer) -> None:
        modules = [importlib.import_module("cqbc." + m) for m in MODULES]
        originals = {}
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    originals[id(obj)] = (obj, tracer.wrap(name, obj))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "cqbc" or n.startswith("cqbc.")]
        self._slots = [
            (vars(ns), attr) + originals[id(obj)]
            for ns in namespaces for attr, obj in vars(ns).items()
            if id(obj) in originals
        ]

    def install(self) -> None:
        for namespace, attr, _, traced in self._slots:
            namespace[attr] = traced

    def remove(self) -> None:
        for namespace, attr, original, _ in self._slots:
            namespace[attr] = original
