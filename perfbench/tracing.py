"""Layer spans recorded from outside the program.

:class:`Tracer` replaces public methods of each layer's classes with
timing wrappers for the duration of a traced pass and restores them
afterwards; nothing under ``src/`` knows it is being traced.  Class
attributes are wrapped, not instances, because the service replaces its
engine, CSR and warm cache on every rebuild.  ``apply_delta`` and
``affected_region`` are wrapped where ``repro.service.engine`` imports
them.

Each span records its id, its parent (the span that caused it), its name,
start, end and thread.  A layer's self time is its duration minus the time
its child spans cover.  Spans stay in memory until :meth:`Tracer.summary`
and :func:`check_trace` read them.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict

import repro.service.engine as service_engine
from repro.core.csr import CSRSimGraph
from repro.core.propagation_csr import CSRPropagationEngine
from repro.core.scheduler import PostponedScheduler
from repro.core.simgraph import SimGraphBuilder
from repro.core.warmcache import WarmStateCache
from repro.serve.admission import AdmissionController
from repro.serve.server import AsyncRecommendationServer
from repro.service.engine import RecommendationService


class Tracer:
    """Wraps layer entry points; collects spans, counts and samples."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, int, str]] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.samples: dict[tuple[str, str], list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: Set by the harness: spans are tagged ``"setup"`` or ``"live"``.
        self.phase = "setup"
        #: While the load generator offers a ladder rung: its rate and
        #: ``id(request) -> due time`` (perf_counter seconds).
        self.rung: int | None = None
        self.due: dict[int, float] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count(self, key: str, n: float = 1) -> None:
        """Add ``n`` to ``key`` of the current phase."""
        with self._lock:
            self.counts[self.phase, key] += n

    def sample(self, key: str, value: float) -> None:
        """Record ``value`` under ``key`` of the current phase."""
        with self._lock:
            self.samples[self.phase, key].append(value)

    def _wrap(self, fn, name: str, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            if stack and stack[-1][1] == name:
                # A layer calling itself (an override delegating to its
                # base) stays one span.
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            stack.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, stack[-1][0] if stack else None, name, start, end,
                     threading.get_ident(), tracer.phase)
                )
            if hook is not None:
                hook(tracer, args, result, start, end)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self._wrap(original.__func__, name, hook))
        else:
            wrapped = self._wrap(original, name, hook)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        install(self)
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------
    def summary(self, phase: str) -> dict:
        """Per-name calls / busy / self seconds and durations of ``phase``.

        Also the counts and samples taken in ``phase``.
        """
        child: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        layers: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "busy": 0.0, "self": 0.0, "durations": []}
        )
        for span_id, _, name, start, end, _, span_phase in self.spans:
            if span_phase != phase:
                continue
            entry = layers[name]
            entry["calls"] += 1
            entry["busy"] += end - start
            entry["self"] += end - start - child[span_id]
            entry["durations"].append(end - start)
        counts: dict[str, float] = defaultdict(float)
        samples: dict[str, list[float]] = defaultdict(list)
        for (key_phase, key), value in self.counts.items():
            if key_phase == phase:
                counts[key] += value
        for (key_phase, key), values in self.samples.items():
            if key_phase == phase:
                samples[key].extend(values)
        return {"layers": layers, "counts": counts, "samples": samples}


#: The outermost spans must cover at least this share of the closed-loop
#: windows, where the caller is never idle.  Measured coverage is 0.9 or
#: more on every workload; a lost wrapper leaves a gap below it.
COVERAGE_FLOOR = 0.8


def check_trace(spans, windows) -> tuple[list[str], float]:
    """What is wrong with the recorded spans, and the coverage of ``windows``.

    Self times plus the untraced remainder add up to the traced wall time
    only if the spans nest properly, so the check is on the intervals:

    - each child span lies inside its parent's interval, on its thread;
    - the children of one span, and the outermost spans of one thread,
      do not overlap one another;
    - the outermost spans of all threads together cover at least
      ``COVERAGE_FLOOR`` of ``windows``, the ``(start, end)`` stretches
      of the passes in which the caller is never idle.

    Returns the problems found (empty when the trace is sound) and the
    coverage.
    """
    by_id = {span[0]: span for span in spans}
    problems: list[str] = []
    siblings: dict[tuple, list[tuple[float, float, str]]] = defaultdict(list)
    for _, parent, name, start, end, thread, _ in spans:
        if parent is None:
            siblings["root", thread].append((start, end, name))
            continue
        outer = by_id.get(parent)
        if (
            outer is None or outer[5] != thread
            or start < outer[3] or end > outer[4]
        ):
            problems.append(f"a {name} span lies outside its parent")
        siblings["child", parent].append((start, end, name))
    for intervals in siblings.values():
        intervals.sort()
        for (_, end, before), (start, _, after) in zip(intervals, intervals[1:]):
            if start < end:
                problems.append(f"a {after} span overlaps a {before} span")
    roots = sorted((span[3], span[4]) for span in spans if span[1] is None)
    union: list[list[float]] = []
    for start, end in roots:
        if union and start <= union[-1][1]:
            union[-1][1] = max(union[-1][1], end)
        else:
            union.append([start, end])
    covered = sum(
        max(0.0, min(end, w_end) - max(start, w_start))
        for w_start, w_end in windows
        for start, end in union
    )
    total = sum(w_end - w_start for w_start, w_end in windows)
    coverage = covered / total if total else 0.0
    if coverage < COVERAGE_FLOOR:
        problems.append(
            f"spans cover {coverage:.3f} of the closed-loop time, "
            f"below {COVERAGE_FLOOR}"
        )
    return problems, coverage


# ----------------------------------------------------------------------
# What gets wrapped, and the counts taken at each boundary
# ----------------------------------------------------------------------
def _prop_task(tracer, args, result, start, end):
    tracer.count("prop.tasks")


def _prop_tasks(tracer, args, result, start, end):
    tracer.count("prop.tasks", len(result))


def _warm_get(tracer, args, result, start, end):
    tracer.count("warm.hits" if result is not None else "warm.misses")


def _released(tracer, args, result, start, end):
    tracer.count("scheduler.tasks", len(result))


def _affected(tracer, args, result, start, end):
    tracer.sample("delta.affected_users", len(result[1].affected_users))


def _patched(tracer, args, result, start, end):
    if result:
        tracer.count("csr.patched")


def _admitted(tracer, args, result, start, end):
    tracer.count(f"admission.{result}")


def _batch(tracer, args, result, start, end):
    # Only open-loop ladder rungs count: the drain queues everything at once.
    if tracer.rung is None:
        return
    batch = args[1]
    tracer.count("server.batches")
    tracer.sample("server.batch_size", len(batch))
    tracer.sample("server.batch_exec", end - start)
    for pending in batch:
        due = tracer.due.get(id(pending.request))
        if due is not None:
            tracer.sample("server.queue_wait", start - due)
            tracer.sample(f"server.queue_wait.r{tracer.rung}", start - due)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports."""
    for attr in ("retweet", "post_tweet", "ingest_batch", "score_batch",
                 "rebuild", "flush"):
        tracer.patch(RecommendationService, attr, f"service.{attr}")
    tracer.patch(CSRPropagationEngine, "propagate", "prop", _prop_task)
    tracer.patch(CSRPropagationEngine, "propagate_many", "prop", _prop_tasks)
    tracer.patch(PostponedScheduler, "offer", "scheduler.offer", _released)
    tracer.patch(PostponedScheduler, "flush", "scheduler.flush", _released)
    tracer.patch(WarmStateCache, "get", "warm.get", _warm_get)
    tracer.patch(WarmStateCache, "put", "warm.put")
    tracer.patch(service_engine, "affected_region", "delta.region")
    tracer.patch(service_engine, "apply_delta", "delta.apply", _affected)
    tracer.patch(CSRSimGraph, "from_simgraph", "csr.compile")
    tracer.patch(CSRSimGraph, "patch_rows", "csr.patch", _patched)
    tracer.patch(CSRSimGraph, "patch_weights", "csr.patch", _patched)
    tracer.patch(SimGraphBuilder, "build", "build")
    tracer.patch(AdmissionController, "admit", "admission.admit", _admitted)
    tracer.patch(AsyncRecommendationServer, "_run_batch", "server.batch", _batch)
