"""Per-layer attribution for the traced run, installed from outside.

The program is not changed.  ``Instrumentation.install`` wraps the
public functions and methods at each ``src/repro`` layer boundary; every
wrapper records a span (name, start, end, parent) and a call count in a
:class:`Tracer` held in memory until the run ends.  A layer's self time
is its spans' duration minus the time covered by wrapped children.

Functions such as ``fingerprint`` and ``layout_for`` are imported by name
into several modules, so a wrapper rebinds every alias in the loaded
``repro.*`` modules — rebinding only the defining module would leave the
callers on the original and count zero calls.

Worker processes (the fleet shard pool, the surrogate corpus sweep)
inherit the wrappers, but their records stay in the worker: only the
coordinator's layers are attributed.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

#: Span names grouped into the layer metrics below.
SCHEDULE = "capping.scheduler.schedule"
ESTIMATE = "capping.scheduler.estimate"
ESTIMATE_RUN = "capping.scheduler.estimate_run"
FINGERPRINT = "runner.cache.fingerprint"
PHASE_BUILD = "workloads.phase_build"
LAYOUT = "workloads.layout"
STREAM = "runner.engine.stream"
RENDER = "runner.engine.render"
ENGINE_RUN = "runner.engine.run"
REDUCE = "hardware.system.reduce"
FOLD = "hardware.system.fold"
FLEET = "capping.fleet"
RENDER_PARTIAL = "capping.shard.render_partial"
RUN_SHARDED = "capping.shard.run_sharded"
WAIT = "capping.shard.wait"
BUILD_JOBS = "capping.scenarios.build_jobs"
RUN_WORKLOAD = "experiments.run_workload"
DOWNSAMPLE = "telemetry.downsample"
HPM = "analysis.hpm"
PREDICT = "prediction.predict"
CORPUS = "prediction.corpus"
FIT = "prediction.fit"
STORE_LOAD = "prediction.store_load"
STORE_SAVE = "prediction.store_save"
SWEEP = "runner.sweep.map"
#: The benchmark's own top-level span around one timed body.
BODY = "bench.body"

#: (module, attribute path, span name) of every wrapped entry point.
#: ``*`` as the class name wraps that method on every class of every
#: loaded ``repro.*`` module that defines it.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.capping.scheduler", "PowerAwareScheduler.schedule", SCHEDULE),
    ("repro.capping.scheduler", "cached_estimate_run", ESTIMATE),
    ("repro.capping.scheduler", "estimate_run", ESTIMATE_RUN),
    ("repro.runner.cache", "fingerprint", FINGERPRINT),
    ("repro", "*.phases", PHASE_BUILD),
    ("repro.vasp.parallel", "layout_for", LAYOUT),
    ("repro.runner.engine", "PowerEngine.stream", STREAM),
    ("repro.runner.engine", "PowerEngine.run", ENGINE_RUN),
    ("repro.hardware.system", "JobPowerPartial.add_samples", REDUCE),
    ("repro.hardware.system", "JobPowerPartial.trim", REDUCE),
    ("repro.hardware.system", "RunningMoments.from_batch", REDUCE),
    ("repro.hardware.system", "RunningMoments.merge", FOLD),
    ("repro.hardware.system", "RunningMoments.from_state", FOLD),
    ("repro.hardware.system", "SystemPowerAccumulator.merge_partial", FOLD),
    ("repro.hardware.system", "SystemPowerAccumulator.add_busy_interval", FOLD),
    ("repro.hardware.system", "SystemPowerAccumulator.finalize", FOLD),
    ("repro.capping.fleet", "compare_fleet_policies_traced", FLEET),
    ("repro.capping.fleet", "simulate_fleet_traced", FLEET),
    ("repro.capping.fleet", "job_stream", FLEET),
    ("repro.capping.shard", "render_job_partial", RENDER_PARTIAL),
    ("repro.capping.shard", "run_sharded", RUN_SHARDED),
    ("repro.capping.shard", "plan_shards", RUN_SHARDED),
    ("repro.capping.shard", "default_batch_jobs", RUN_SHARDED),
    ("repro.capping.shard", "as_completed", WAIT),
    ("repro.capping.scenarios", "FleetScenario.build_jobs", BUILD_JOBS),
    ("repro.experiments.common", "run_workload", RUN_WORKLOAD),
    ("repro.telemetry.downsample", "downsample_trace", DOWNSAMPLE),
    ("repro.analysis.modes", "high_power_mode_w", HPM),
    ("repro.prediction.model", "TwoStageSurrogate.predict", PREDICT),
    ("repro.prediction.corpus", "build_corpus", CORPUS),
    ("repro.prediction.model", "fit_surrogate", FIT),
    ("repro.prediction.store", "load_surrogate", STORE_LOAD),
    ("repro.prediction.store", "save_surrogate", STORE_SAVE),
    ("repro.runner.sweep", "SweepExecutor.map", SWEEP),
)


#: Functions returning iterators: each ``next()`` is timed instead.
_ITERATED = {"as_completed"}


class Tracer:
    """Spans and counts of one traced phase, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        #: Calls per wrapped entry point (``module:attribute``).
        self.calls: Counter[str] = Counter()
        #: Quantities observed from return values (samples, rows, ...).
        self.values: Counter[str] = Counter()
        #: Distinct phase-build inputs.
        self.phase_keys: set = set()
        #: Jobs per shard of the last ``plan_shards`` call.
        self.shard_sizes: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        else:  # pragma: no cover - only a wrapped call escaping LIFO order
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def iterate(self, name: str, iterator):
        """Yield from ``iterator``, timing each ``next()`` as a span."""
        while True:
            index = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                self.close(index)
                return
            except BaseException:
                self.close(index)
                raise
            self.close(index)
            yield item

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus time covered by child spans."""
        child = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[index] - self.starts[index]
        totals: dict[str, float] = defaultdict(float)
        for index, name in enumerate(self.names):
            totals[name] += self.ends[index] - self.starts[index] - child[index]
        return dict(totals)

    def span_counts(self) -> Counter[str]:
        return Counter(self.names)


def _loaded_repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Instrumentation:
    """Installs and removes the wrappers; ``tracer`` receives records.

    Swap ``tracer`` between phases (set-up, timed bodies) to keep their
    records apart.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._undo: list[tuple[object, str, object]] = []
        #: ``module:attribute`` of every wrapped entry point.
        self.wrapped: list[str] = []

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        if self._undo:
            return
        self.wrapped = []
        for module_name, path, span in TARGETS:
            owner_name, _, attr = path.rpartition(".")
            observe = _OBSERVERS.get(path)
            if owner_name == "*":
                self._wrap_everywhere(attr, span, observe)
                continue
            module = sys.modules.get(module_name) or __import__(
                module_name, fromlist=["_"]
            )
            label = f"{module_name}:{path}"
            if owner_name:
                self._wrap_method(getattr(module, owner_name), attr, span, label, observe)
            else:
                self._wrap_function(module, attr, span, label, observe)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _wrap_everywhere(self, attr: str, span: str, observe) -> None:
        seen = set()
        for module in _loaded_repro_modules():
            for value in list(vars(module).values()):
                if (
                    isinstance(value, type)
                    and value.__module__ == module.__name__
                    and inspect.isfunction(value.__dict__.get(attr))
                    and value not in seen
                ):
                    seen.add(value)
                    label = f"{module.__name__}:{value.__qualname__}.{attr}"
                    self._wrap_method(value, attr, span, label, observe)

    def _wrap_function(self, module, attr: str, span: str, label: str, observe) -> None:
        original = getattr(module, attr)
        if attr in _ITERATED:
            wrapper = self._iterating_wrapper(original, span, label)
        else:
            wrapper = self._make_wrapper(original, span, label, observe)
        for loaded in _loaded_repro_modules():
            namespace = vars(loaded)
            for name, value in list(namespace.items()):
                if value is original:
                    self._undo.append((loaded, name, original))
                    setattr(loaded, name, wrapper)
        self.wrapped.append(label)

    def _wrap_method(self, owner: type, attr: str, span: str, label: str, observe) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._make_wrapper(raw.__func__, span, label, observe))
        else:
            wrapped = self._make_wrapper(raw, span, label, observe)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        self.wrapped.append(label)

    # -- wrappers -------------------------------------------------------
    def _make_wrapper(self, original, span: str, label: str, observe):
        instrumentation = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer = instrumentation.tracer
            tracer.calls[label] += 1
            index = tracer.open(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if observe is not None:
                result = observe(tracer, result, args, kwargs)
            return result

        return wrapper

    def _iterating_wrapper(self, original, span: str, label: str):
        instrumentation = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer = instrumentation.tracer
            tracer.calls[label] += 1
            return tracer.iterate(span, original(*args, **kwargs))

        return wrapper


# ----------------------------------------------------------------------
# Observers: quantities read from return values
# ----------------------------------------------------------------------
def _observe_stream(tracer: Tracer, streamed, args, kwargs):
    tracer.values["samples"] += streamed.n_samples * streamed.n_nodes
    streamed.chunks = tracer.iterate(RENDER, streamed.chunks)
    return streamed


def _observe_run(tracer: Tracer, result, args, kwargs):
    if result.traces:
        tracer.values["samples"] += result.traces[0].times.size * len(result.traces)
    return result


def _observe_phases(tracer: Tracer, phases, args, kwargs):
    workload = args[0]
    tracer.phase_keys.add(
        (
            type(workload).__qualname__,
            getattr(workload, "name", None),
            repr(args[1:]),
            repr(sorted(kwargs.items())),
        )
    )
    return phases


def _observe_corpus(tracer: Tracer, samples, args, kwargs):
    tracer.values["corpus_rows"] += len(samples)
    return samples


def _observe_run_sharded(tracer: Tracer, pooled, args, kwargs):
    if not pooled:
        tracer.values["fallbacks"] += 1
    return pooled


def _observe_plan(tracer: Tracer, shards, args, kwargs):
    tracer.shard_sizes = [len(slice_) for slice_ in shards]
    return shards


def _observe_batch_jobs(tracer: Tracer, batch_jobs, args, kwargs):
    tracer.values["batches"] += sum(math.ceil(n / batch_jobs) for n in tracer.shard_sizes)
    return batch_jobs


#: ``TARGETS`` path -> observer called with each return value.
_OBSERVERS = {
    "PowerEngine.stream": _observe_stream,
    "PowerEngine.run": _observe_run,
    "*.phases": _observe_phases,
    "build_corpus": _observe_corpus,
    "run_sharded": _observe_run_sharded,
    "plan_shards": _observe_plan,
    "default_batch_jobs": _observe_batch_jobs,
}


# ----------------------------------------------------------------------
# Layer metrics and the coverage prediction they are checked against
# ----------------------------------------------------------------------
#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("import.repro_cli_s", "s", "lower"),
    ("capping.scheduler.schedule_self_s", "s", "lower"),
    ("capping.scheduler.estimate_calls", "count", "lower"),
    ("capping.scheduler.estimate_s", "s", "lower"),
    ("capping.scheduler.estimate_hit_ratio", "ratio", "higher"),
    ("runner.cache.fingerprint_calls", "count", "lower"),
    ("runner.cache.fingerprint_s", "s", "lower"),
    ("runner.cache.run_hit_ratio", "ratio", "higher"),
    ("workloads.phase_build_calls", "count", "lower"),
    ("workloads.phase_build_s", "s", "lower"),
    ("workloads.phase_build_useful_ratio", "ratio", "higher"),
    ("runner.engine.resolve_calls", "count", "lower"),
    ("runner.engine.resolve_s", "s", "lower"),
    ("runner.engine.render_s", "s", "lower"),
    ("runner.engine.run_s", "s", "lower"),
    ("runner.engine.samples", "count", "lower"),
    ("hardware.system.reduce_s", "s", "lower"),
    ("hardware.system.fold_s", "s", "lower"),
    ("capping.fleet.self_s", "s", "lower"),
    ("capping.shard.render_partial_calls", "count", "lower"),
    ("capping.shard.run_sharded_s", "s", "lower"),
    ("capping.shard.wait_s", "s", "lower"),
    ("capping.shard.batches", "count", "lower"),
    ("capping.shard.fallbacks", "count", "lower"),
    ("capping.scenarios.build_jobs_s", "s", "lower"),
    ("experiments.run_workload_calls", "count", "lower"),
    ("experiments.run_workload_s", "s", "lower"),
    ("telemetry.downsample_calls", "count", "lower"),
    ("telemetry.downsample_s", "s", "lower"),
    ("analysis.hpm_calls", "count", "lower"),
    ("analysis.hpm_s", "s", "lower"),
    ("prediction.predict_calls", "count", "lower"),
    ("prediction.predict_s", "s", "lower"),
    ("prediction.corpus_rows", "count", "higher"),
    ("prediction.corpus_s", "s", "lower"),
    ("prediction.fit_s", "s", "lower"),
    ("prediction.store_load_s", "s", "lower"),
    ("runner.sweep.dedupe_ratio", "ratio", "higher"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def body_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer metrics of one traced timed body."""
    own = tracer.self_times()
    count = tracer.span_counts()

    def self_s(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    builds = count[PHASE_BUILD]
    return {
        "capping.scheduler.schedule_self_s": self_s(SCHEDULE),
        "capping.scheduler.estimate_calls": count[ESTIMATE],
        "capping.scheduler.estimate_s": self_s(ESTIMATE, ESTIMATE_RUN),
        "runner.cache.fingerprint_calls": count[FINGERPRINT],
        "runner.cache.fingerprint_s": self_s(FINGERPRINT),
        "workloads.phase_build_calls": builds,
        "workloads.phase_build_s": self_s(PHASE_BUILD, LAYOUT),
        "workloads.phase_build_useful_ratio": (
            len(tracer.phase_keys) / builds if builds else 0.0
        ),
        "runner.engine.resolve_calls": count[STREAM] + count[ENGINE_RUN],
        "runner.engine.resolve_s": self_s(STREAM),
        "runner.engine.render_s": self_s(RENDER),
        "runner.engine.run_s": self_s(ENGINE_RUN),
        "runner.engine.samples": tracer.values["samples"],
        "hardware.system.reduce_s": self_s(REDUCE),
        "hardware.system.fold_s": self_s(FOLD),
        "capping.fleet.self_s": self_s(FLEET),
        "capping.shard.render_partial_calls": count[RENDER_PARTIAL],
        "capping.shard.run_sharded_s": self_s(RUN_SHARDED),
        "capping.shard.wait_s": self_s(WAIT),
        "capping.shard.batches": tracer.values["batches"],
        "capping.shard.fallbacks": tracer.values["fallbacks"],
        "experiments.run_workload_calls": count[RUN_WORKLOAD],
        "experiments.run_workload_s": self_s(RUN_WORKLOAD),
        "telemetry.downsample_calls": count[DOWNSAMPLE],
        "telemetry.downsample_s": self_s(DOWNSAMPLE),
        "analysis.hpm_calls": count[HPM],
        "analysis.hpm_s": self_s(HPM),
        "prediction.predict_calls": count[PREDICT],
        "prediction.predict_s": self_s(PREDICT),
        "trace.unattributed_s": self_s(BODY),
    }


def prep_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer metrics of the traced set-up (inputs, surrogate store)."""
    own = tracer.self_times()
    return {
        "capping.scenarios.build_jobs_s": own.get(BUILD_JOBS, 0.0),
        "prediction.corpus_rows": tracer.values["corpus_rows"],
        # The corpus is measured through the sweep executor; waiting on
        # its pool is part of building the corpus.
        "prediction.corpus_s": own.get(CORPUS, 0.0) + own.get(SWEEP, 0.0),
        "prediction.fit_s": own.get(FIT, 0.0),
        "prediction.store_load_s": own.get(STORE_LOAD, 0.0),
    }


_FLEET_BODY = {SCHEDULE, ESTIMATE, ESTIMATE_RUN, FINGERPRINT, PHASE_BUILD, LAYOUT, FOLD, FLEET}
_PREP_ONLY = {BUILD_JOBS, CORPUS, FIT, STORE_LOAD, STORE_SAVE, SWEEP}
_CAP_BODY = {FINGERPRINT, PHASE_BUILD, LAYOUT, ENGINE_RUN, RUN_WORKLOAD, DOWNSAMPLE, HPM, PREDICT}
_ALL = {
    SCHEDULE, ESTIMATE, ESTIMATE_RUN, FINGERPRINT, PHASE_BUILD, LAYOUT, STREAM,
    RENDER, ENGINE_RUN, REDUCE, FOLD, FLEET, RENDER_PARTIAL, RUN_SHARDED, WAIT,
    RUN_WORKLOAD, DOWNSAMPLE, HPM, PREDICT, *_PREP_ONLY,
}
_VASP_BODY = _FLEET_BODY | {STREAM, RENDER, REDUCE, RENDER_PARTIAL}
#: fleet-zoo-sharded renders in worker processes, so the coordinator
#: sees no stream, render, reduce or render_partial call at all.
_ZOO_BODY = _FLEET_BODY | {RUN_SHARDED, WAIT}

#: workload -> phase -> (spans that must record >= 1 call, spans that
#: must record exactly 0).
COVERAGE: dict[str, dict[str, tuple[set, set]]] = {
    "fleet-vasp": {
        "body": (_VASP_BODY, _ALL - _VASP_BODY),
        "prep": (set(), _PREP_ONLY),
    },
    "fleet-zoo-sharded": {
        "body": (_ZOO_BODY, _ALL - _ZOO_BODY),
        "prep": ({BUILD_JOBS}, _PREP_ONLY - {BUILD_JOBS}),
    },
    "cap-study": {
        "body": (_CAP_BODY, _ALL - _CAP_BODY),
        "prep": (_PREP_ONLY - {BUILD_JOBS}, {BUILD_JOBS}),
    },
}


def coverage_errors(workload: str, phase: str, tracer: Tracer) -> list[str]:
    """Spans whose call counts contradict the prediction table."""
    used, bypassed = COVERAGE[workload][phase]
    count = tracer.span_counts()
    errors = [f"{phase}: {name} recorded no call" for name in sorted(used) if not count[name]]
    errors += [
        f"{phase}: {name} recorded {count[name]} calls, predicted 0"
        for name in sorted(bypassed)
        if count[name]
    ]
    return errors
