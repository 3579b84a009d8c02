"""Span tracing by wrapping module attributes of geoseg's public functions.

The program is not modified: a `Tracer` replaces each traced function, at
every module attribute it is reachable through (including names another
module imported with `from ... import`), by a wrapper that records a span.
Spans are kept in memory as (name, start, end, parent) and self time and
call counts are derived from them. `Tracer.patched()` restores every
replaced attribute on exit, also when the traced call raises.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
import tracemalloc
from dataclasses import dataclass

# (span name, sites). The span is named after the defining module; each
# site is a module whose attribute of that name callers look up, which
# includes modules that imported the function with `from ... import`.
TRACED = (
    ("ingest.parse_inputs", ("ingest",)),
    ("ingest.apply_filters", ("ingest",)),
    ("network.build_count_network", ("network",)),
    ("network.build_min_symmetrized_network", ("network",)),
    ("network.binarize", ("network",)),
    ("network.write_edge_list_csv", ("network",)),
    ("geo.school_distance_matrix", ("geo", "synth")),
    ("geo.neighborhood_affluence_segregation", ("geo",)),
    ("geo.center_distance_correlation", ("geo",)),
    ("geo.geographic_neighbors", ("geo", "segregation")),
    ("decay.tie_probability_curve", ("decay",)),
    ("decay.fit_power_law", ("decay",)),
    ("decay.write_curve_csv", ("decay",)),
    ("segregation.geographic_segregation", ("segregation",)),
    ("segregation.digital_segregation", ("segregation",)),
    ("segregation.degree_outcome_correlation", ("segregation",)),
    ("segregation.segregation_profile", ("segregation",)),
    ("segregation.write_profile_csv", ("segregation",)),
    ("segregation.digital_neighbors", ("segregation",)),
    ("model.permutation_p_value", ("model", "geo", "segregation")),
    ("nullmodel.null_distribution_s_d", ("nullmodel",)),
    ("nullmodel.write_null_samples_csv", ("nullmodel",)),
    ("synth.generate_city", ("synth",)),
    ("synth.generate_apartments", ("synth",)),
    ("synth.emit_city", ("synth",)),
)


def _module(short: str):
    return importlib.import_module(f"geoseg.{short}")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for the traced geoseg functions.

    `capture` names spans whose last call's (args, kwargs, result) are
    kept, so a later pass can repeat exactly that call.
    """

    def __init__(self, capture=()):
        self.capture = set(capture)
        self.captured: dict[str, tuple] = {}
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def span(self, name: str):
        """Context manager recording one span under the current parent."""
        return _SpanContext(self, name)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name in self.capture:
                self.captured[name] = (fn, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers; restore every original attribute on exit."""
        saved = []
        try:
            for name, sites in TRACED:
                home, attr = name.split(".")
                original = getattr(_module(home), attr)
                wrapper = self._wrap(name, original)
                for site in sites:
                    module = _module(site)
                    if getattr(module, attr) is not original:
                        raise RuntimeError(
                            f"{site}.{attr} is not {name}; cannot trace it"
                        )
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # --- derived figures -------------------------------------------------

    def total(self, name: str) -> float:
        """Inclusive seconds over the calls of `name` that are not nested
        inside another call of `name`."""
        return sum(s.duration for s in self._outermost(name))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its child spans cover.
        Children of one span never overlap (one thread), so the covered
        time is the sum of their durations."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s.name] = out.get(s.name, 0.0) + s.duration - child_time[i]
        return out

    def children_time(self, index: int) -> float:
        return sum(s.duration for s in self.spans if s.parent == index)

    def _outermost(self, name: str):
        for s in self.spans:
            if s.name != name:
                continue
            p = s.parent
            while p >= 0 and self.spans[p].name != name:
                p = self.spans[p].parent
            if p < 0:
                yield s


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.parent = t._stack[-1] if t._stack else -1
        # reserve the slot so children can point at it while it is open
        self.index = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans[self.index] = Span(self.name, self.start, end, self.parent)
        return False

    @property
    def record(self) -> Span:
        return self.tracer.spans[self.index]


def span_cost_s(calls: int = 20000, batches: int = 5) -> float:
    """Seconds one traced call adds over the bare call: the median over
    batches of `calls` calls to a wrapped no-op minus as many bare calls."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("noop", noop)
    costs = []
    for _ in range(batches):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        costs.append((traced - bare) / calls)
    return statistics.median(costs)


def peak_alloc_mb(fn, args, kwargs) -> float:
    """Peak bytes allocated by one call of fn, as tracemalloc sees them
    (numpy reports its buffers to tracemalloc), in MiB."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20
