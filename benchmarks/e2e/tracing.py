"""Per-layer tracing from outside the program.

In the change that defines a benchmark, spans are recorded by the
benchmark's own files around the calls into each layer; spans inside the
program are a later change.  :class:`Tracer` therefore wraps public
callables *in memory* - class attributes and module functions reached by
dotted path - with timing closures, and restores every one on exit.  A
target whose module or attribute no longer exists is skipped and its span
reads ``null``, so a later change may delete a layer without breaking the
benchmark.

Each span records name, start, end and the span that caused it (its
parent).  A layer's *self time* is its spans' duration minus the part their
child spans cover; the root span wraps the whole repetition, so self times
sum to the root's duration and shares sum to 1 by construction.

Counts are taken at the same boundaries (``after`` hooks on
``Engine.run``, ``CedrRuntime.run`` and ``ServeDriver.result`` read the live
objects' public counters), so ratios are measured where the work happens.
"""

from __future__ import annotations

import fnmatch
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

__all__ = ["Tracer", "TARGETS", "SPAN_NAMES", "ROOT_SPAN", "wrapper_fee"]

#: the root span: self time = harness glue plus whatever no target covers
ROOT_SPAN = "harness.other"

#: span name -> dotted targets (``module:Owner.attr``; a trailing ``*``
#: globs over the owner's attributes).  Layers are the package names under
#: ``src/repro/``.
TARGETS: dict[str, tuple[str, ...]] = {
    "scenario.load": (
        "repro.scenario:load_scenario",
        "repro.scenario:ScenarioSpec.build_platform",
        "repro.scenario:ScenarioSpec.build_config",
        "repro.scenario:ScenarioSpec.build_workload",
        "repro.scenario:ScenarioSpec.build_serve",
    ),
    "platforms.build": ("repro.platforms:PlatformConfig.build",),
    "workload.instantiate": ("repro.workload:WorkloadSpec.instantiate",),
    "apps.make_instance": ("repro.apps:CedrApplication.make_instance",),
    "dag.build": ("repro.dag:DagBuilder.build",),
    "runtime.start": (
        "repro.runtime:CedrRuntime.__init__",
        "repro.runtime:CedrRuntime.start",
    ),
    "runtime.submit": (
        "repro.runtime:CedrRuntime.submit",
        "repro.runtime:CedrRuntime.seal",
    ),
    "runtime.run": ("repro.runtime:CedrRuntime.run",),
    # the engine loop, worker/daemon coroutine bodies, the libCEDR submit
    # path and simcore.sync: the remainder in-program tracing will split
    "simcore.engine_rest": ("repro.simcore:Engine.run",),
    "sched.schedule": (
        "repro.sched:RoundRobin.schedule",
        "repro.sched:EarliestFinishTime.schedule",
        "repro.sched:EarliestTaskFirst.schedule",
        "repro.sched:HeftRT.schedule",
        "repro.sched:MinimumExecutionTime.schedule",
        "repro.sched:RandomScheduler.schedule",
    ),
    "platforms.cost_table": (
        "repro.platforms:CostTable.lookup",
        "repro.platforms:CostTable.rows_for",
        "repro.platforms:CostTable.estimate_rows",
        "repro.platforms:CostTable.support_rows",
        "repro.platforms:CostTable.support_row",
        "repro.platforms:CostTable.mean_estimate",
    ),
    "runtime.logbook": (
        "repro.runtime:Logbook.record_task",
        "repro.runtime:Logbook.record_round",
        "repro.runtime:Logbook.open_app",
        "repro.runtime:Logbook.close_app",
    ),
    "runtime.perf_counters": ("repro.runtime:PerfCounters.record_*",),
    "telemetry.record": (
        "repro.telemetry:CedrTelemetry.record_*",
        "repro.telemetry:CedrTelemetry.sample",
    ),
    "audit.online": (
        "repro.audit:OnlineAuditor.on_round",
        "repro.audit:OnlineAuditor.on_complete",
        "repro.audit:OnlineAuditor.final_check",
    ),
    # the stream is an iterator: the factory is wrapped where the driver
    # looks it up, and each ``next`` on what it returns is one span
    "serve.arrival": ("repro.serve.driver:make_arrival_stream",),
    "serve.admission": (
        "repro.serve:AdmissionController.decide",
        "repro.serve:AdmissionController.admitted",
        "repro.serve:AdmissionController.finished",
        "repro.serve:AdmissionController.push",
        "repro.serve:AdmissionController.release",
    ),
    # no target of its own: the daemon hook is an instance attribute, wrapped
    # on the live runtime as ``CedrRuntime.run`` is entered
    "serve.on_app_finished": (),
    "metrics.from_runtime": (
        "repro.metrics:RunResult.from_runtime",
        "repro.serve:ServeDriver.result",
    ),
    "corpus.cell": ("repro.corpus.parity:run_cell",),
}

SPAN_NAMES: tuple[str, ...] = tuple(TARGETS) + (ROOT_SPAN,)

#: targets that return an iterator: what is timed is each ``next`` on it
ITERATOR_FACTORIES = frozenset({"repro.serve.driver:make_arrival_stream"})

_MISSING = object()


class _TimedIterator:
    """An iterator whose every ``next`` is one span."""

    def __init__(self, inner: Iterator, tracer: "Tracer", name: str) -> None:
        self._next = tracer.wrap(name, inner.__next__)

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        return self._next()


class Tracer:
    """In-memory span recorder over wrapped public callables."""

    def __init__(self) -> None:
        # one entry per span, parallel lists (a span is its index)
        self.span_names: list[str] = []
        self.span_parents: list[int] = []
        self.span_starts: list[float] = []
        self.span_ends: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        #: (owner, attr, raw original or _MISSING) for every patched attribute
        self.patched: list[tuple[Any, str, Any]] = []
        #: span names none of whose targets could be installed
        self.missing: set[str] = set()
        #: code objects of the wrapped originals, per span (for --crosscheck)
        self.target_codes: dict[str, set] = defaultdict(set)

    # -- recording ------------------------------------------------------ #

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A timing closure over *fn* that records one span per call."""
        names, parents = self.span_names, self.span_parents
        starts, ends = self.span_starts, self.span_ends
        stack = self._stack
        clock = time.perf_counter
        code = getattr(fn, "__code__", None)
        if code is not None:
            self.target_codes[name].add(code)

        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            index = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(result, *args)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self):
        """The root span around one whole repetition."""
        index = len(self.span_starts)
        self.span_names.append(ROOT_SPAN)
        self.span_parents.append(-1)
        self.span_ends.append(0.0)
        self._stack.append(index)
        self.span_starts.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_ends[index] = time.perf_counter()
            self._stack.pop()

    # -- install / restore ---------------------------------------------- #

    def install(self, targets: Optional[dict[str, tuple[str, ...]]] = None) -> None:
        targets = TARGETS if targets is None else targets
        hooks = self._hooks()
        for name, specs in targets.items():
            installed = 0
            for spec in specs:
                for owner, attr in _resolve(spec):
                    before, after = hooks.get(spec, (None, None))
                    installed += self._patch(
                        owner, attr, name, spec in ITERATOR_FACTORIES, before, after
                    )
            if specs and not installed:
                self.missing.add(name)

    def _patch(self, owner, attr, name, iterator_factory, before, after) -> int:
        if any(o is owner and a == attr for o, a, _ in self.patched):
            return 1  # two targets resolved to one inherited attribute
        raw = vars(owner).get(attr, _MISSING)
        current = getattr(owner, attr) if raw is _MISSING else raw
        if isinstance(current, (classmethod, staticmethod)):
            rewrap = type(current)
            wrapped = rewrap(self.wrap(name, current.__func__, before, after))
        elif iterator_factory:
            factory = current

            def wrapped(*args, **kwargs):
                return _TimedIterator(factory(*args, **kwargs), self, name)

        elif callable(current):
            wrapped = self.wrap(name, current, before, after)
        else:
            return 0
        setattr(owner, attr, wrapped)
        self.patched.append((owner, attr, raw))
        return 1

    def restore(self) -> None:
        """Put back every patched attribute (identity-exact)."""
        while self.patched:
            owner, attr, raw = self.patched.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- hooks: counts read where the work happens ---------------------- #

    def _hooks(self) -> dict[str, tuple[Optional[Callable], Optional[Callable]]]:
        counts = self.counts

        def before_runtime_run(runtime, *_):
            hook = getattr(runtime, "on_app_finished", None)
            if hook is not None and not hasattr(hook, "__wrapped__"):
                runtime.on_app_finished = self.wrap("serve.on_app_finished", hook)

        def after_runtime_run(_result, runtime, *_):
            c = runtime.counters
            counts["runtime.apps"] += len(runtime.apps)
            counts["runtime.tasks"] += c.tasks_completed
            counts["runtime.sched_rounds"] += c.sched_rounds
            counts["runtime.ready_depth_sum"] += c.ready_depth_sum
            counts["runtime.ready_depth_max"] = max(
                counts["runtime.ready_depth_max"], c.ready_depth_max
            )
            if runtime.faults is not None:
                counts["faults.injected"] += c.faults_injected
                counts["faults.retries"] += c.retries
                counts["faults.task_failures"] += c.task_failures
                counts["faults.apps_failed"] += sum(
                    1 for app in runtime.apps.values() if app.failed and not app.cancelled
                )
            if runtime.telemetry is not None:
                counts["telemetry.samples"] += len(runtime.telemetry.samples)

        def after_engine_run(_result, engine, *_):
            stats = engine.event_core_stats()
            counts["simcore.events"] += engine.events_processed
            counts["simcore.timers_fired"] += stats.get("timers_fired", 0)
            batches = stats.get("drain_batches", 0)
            counts["simcore.drain_batches"] += batches
            counts["simcore.drain_events"] += stats.get("mean_batch", 0.0) * batches

        def after_serve_result(result, *_):
            counts["serve.offered"] += result.offered
            counts["serve.admitted"] += result.admitted
            counts["serve.shed"] += result.shed
            counts["serve.held"] += sum(t.held for t in result.tenants)

        return {
            "repro.runtime:CedrRuntime.run": (before_runtime_run, after_runtime_run),
            "repro.simcore:Engine.run": (None, after_engine_run),
            "repro.serve:ServeDriver.result": (None, after_serve_result),
        }

    # -- summary -------------------------------------------------------- #

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``self_s``, ``inclusive_s`` and ``calls``.

        Self time is a span's duration minus its child spans', less the
        wrapper's own fee (:func:`wrapper_fee`): the part inside the clock
        reads once per span, the part outside them once per child, which the
        parent would otherwise be billed for.  Without that a layer called
        ten thousand times a rep reads half again too large.  ``inclusive_s``
        is the self time of a span's whole subtree, leaving out spans nested
        under one of the same name, so it compares with a profiler's
        cumulative time; the root's is the total every share is taken of.
        """
        inside, outside = wrapper_fee()
        n = len(self.span_starts)
        own = [self.span_ends[i] - self.span_starts[i] - inside for i in range(n)]
        for i, parent in enumerate(self.span_parents):
            if parent >= 0:
                own[parent] -= self.span_ends[i] - self.span_starts[i] + outside
        subtree = [max(0.0, value) for value in own]
        own = list(subtree)
        for i in range(n - 1, -1, -1):  # a child's index is above its parent's
            if self.span_parents[i] >= 0:
                subtree[self.span_parents[i]] += subtree[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.span_names):
            row = out.setdefault(name, {"self_s": 0.0, "inclusive_s": 0.0, "calls": 0})
            row["self_s"] += own[i]
            row["calls"] += 1
            parent = self.span_parents[i]
            while parent >= 0 and self.span_names[parent] != name:
                parent = self.span_parents[parent]
            if parent < 0:
                row["inclusive_s"] += subtree[i]
        return out

    def spans(self) -> list[dict[str, Any]]:
        """Every span as a record, for writing out when the benchmark ends."""
        return [
            {
                "name": self.span_names[i],
                "start": self.span_starts[i],
                "end": self.span_ends[i],
                "parent": self.span_parents[i],
            }
            for i in range(len(self.span_starts))
        ]


_FEE: Optional[tuple[float, float]] = None


def wrapper_fee() -> tuple[float, float]:
    """Seconds one timing closure costs: (between its clock reads, outside them).

    Measured once per process on a four-argument no-op, fastest of five batches: 20 000
    wrapped calls against 20 000 bare ones give the whole fee, and the mean
    recorded span gives the part between the clock reads.
    """
    global _FEE
    if _FEE is not None:
        return _FEE

    def noop(a, b, c, d) -> None:  # a typical target: self plus three arguments
        return None

    calls = range(20_000)
    whole = inner = float("inf")
    for _ in range(5):
        tracer = Tracer()
        wrapped = tracer.wrap("fee", noop)
        t0 = time.perf_counter()
        for i in calls:
            wrapped(tracer, i, i, i)
        t1 = time.perf_counter()
        for i in calls:
            noop(tracer, i, i, i)
        t2 = time.perf_counter()
        whole = min(whole, ((t1 - t0) - (t2 - t1)) / len(calls))
        recorded = sum(tracer.span_ends) - sum(tracer.span_starts)
        inner = min(inner, recorded / len(calls))
    inner = min(inner, max(whole, 0.0))
    _FEE = (inner, max(whole, 0.0) - inner)
    return _FEE


def _resolve(spec: str) -> list[tuple[Any, str]]:
    """``module:Owner.attr`` -> ``[(owner, attr)]``; ``[]`` when absent.

    For a class, the owner is the class in the MRO that defines the
    attribute, so an inherited method is patched once, where it lives.
    """
    module_name, _, path = spec.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return []
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    if attr.endswith("*"):
        names = sorted(
            n for n in dir(owner) if fnmatch.fnmatchcase(n, attr) and not n.startswith("_")
        )
    else:
        names = [attr] if hasattr(owner, attr) else []
    out = []
    for name in names:
        home = owner
        if isinstance(owner, type):
            home = next((k for k in owner.__mro__ if name in vars(k)), owner)
        out.append((home, name))
    return out
