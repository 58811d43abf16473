"""Fleet simulation: a production-like job stream on a node pool.

The paper's motivation is system-level: "65 % of the variation in the
system power consumption was due to temporal variation in the power used
by individual jobs" (analysis of Perlmutter, ref [14]), and power-aware
scheduling "has the potential to keep the total system power within a
prescribed budget".

This module generates a production-like stream of VASP jobs (mix weighted
toward the common DFT workloads, node counts drawn from each benchmark's
realistic range, Poisson-ish arrivals) and runs it through the
power-aware scheduler, reporting the system power timeline's statistics —
the quantities a facility watches: mean, peak, variability, throughput.
Comparing the capped policy against the uncapped baseline quantifies how
much system-power variation application-level capping removes.
"""

from __future__ import annotations

import heapq
import logging
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.capping import shard
from repro.obs import ledger as run_ledger
from repro.obs.heartbeat import (
    HeartbeatSnapshot,
    RunHeartbeat,
    heartbeat_path_from_env,
)
from repro.capping.policy import CapPolicy
from repro.capping.scheduler import (
    Job,
    PowerAwareScheduler,
    ScheduleResult,
    SchedulerConfig,
    cached_estimate_run,
)
from repro.hardware.platform import NodeSpec, Platform, get_platform
from repro.hardware.system import (
    PerlmutterSystem,
    RunningMoments,
    SystemPowerAccumulator,
    SystemPowerStats,
)
from repro.runner.cache import fingerprint
from repro.runner.engine import EngineConfig
from repro.runner.sweep import SweepExecutor
from repro.vasp.benchmarks import BENCHMARKS
from repro.vasp.parallel import layout_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.hardware.node import GpuNode
    from repro.monitor.collector import FleetMonitor
    from repro.vasp.phases import MacroPhase

logger = logging.getLogger(__name__)

#: Production-like mix weights: basic DFT dominates NERSC's VASP cycles,
#: with a meaningful share of higher-order (HSE/RPA) jobs.
DEFAULT_MIX: dict[str, float] = {
    "PdO4": 0.20,
    "PdO2": 0.20,
    "GaAsBi-64": 0.15,
    "CuC_vdw": 0.15,
    "Si256_hse": 0.12,
    "B.hR105_hse": 0.08,
    "Si128_acfdtr": 0.10,
}


def job_stream(
    n_jobs: int = 24,
    mean_interarrival_s: float = 120.0,
    mix: dict[str, float] | None = None,
    seed: int = 0,
) -> list[Job]:
    """A seeded, production-like stream of jobs.

    Arrivals are exponential (Poisson process); each job's workload is
    drawn from the mix and its node count from the workload's healthy
    range (1 .. optimal for Table I benchmarks, the model's default
    widths for other registry references).  Mix keys are workload
    references in the :func:`repro.workloads.resolve_workload` sense:
    benchmark names, model ids, or ``model:variant``.  The default
    (all-benchmark) mix draws the exact rng sequence it always has, so
    existing seeded streams are bit-identical.
    """
    from repro.workloads import resolve_widths, resolve_workload

    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    if mean_interarrival_s <= 0:
        raise ValueError("mean_interarrival_s must be positive")
    weights = mix if mix is not None else DEFAULT_MIX
    for ref in set(weights) - set(BENCHMARKS):
        try:
            resolve_workload(ref)
        except KeyError as err:
            raise ValueError(f"unresolvable mix entry: {err.args[0]}") from None
    names = sorted(weights)
    probs = np.array([weights[n] for n in names], dtype=float)
    if probs.sum() <= 0:
        raise ValueError("mix weights must sum to a positive value")
    probs = probs / probs.sum()
    workloads = {ref: resolve_workload(ref) for ref in names}
    healthy = {ref: list(resolve_widths(ref)) for ref in names}

    rng = np.random.default_rng(seed)
    jobs = []
    clock = 0.0
    for index in range(n_jobs):
        name = names[int(rng.choice(len(names), p=probs))]
        n_nodes = int(rng.choice(healthy[name]))
        jobs.append(
            Job(
                job_id=f"{name}@{index}",
                workload=workloads[name],
                n_nodes=n_nodes,
                submit_s=clock,
            )
        )
        clock += float(rng.exponential(mean_interarrival_s))
    return jobs


@dataclass(frozen=True)
class FleetReport:
    """System-level outcome of one policy on one job stream."""

    policy_name: str
    schedule: ScheduleResult
    mean_power_w: float
    peak_power_w: float
    power_std_w: float
    makespan_s: float
    jobs_completed: int

    @property
    def coefficient_of_variation(self) -> float:
        """Relative temporal variability of system power."""
        return self.power_std_w / self.mean_power_w if self.mean_power_w > 0 else 0.0


def simulate_fleet(
    jobs: list[Job],
    policy: CapPolicy,
    policy_name: str,
    n_nodes: int = 16,
    power_budget_w: float | None = None,
    platform: "str | Platform | None" = None,
) -> FleetReport:
    """Schedule a stream under a policy and summarize system power.

    The power timeline is duration-weighted over scheduling-cycle samples
    (the samples are irregular when the scheduler skips quiet spans).
    """
    if power_budget_w is None:
        # Node TDP: effectively unbounded.
        power_budget_w = n_nodes * get_platform(platform).node.tdp_w
    config = SchedulerConfig(
        n_nodes=n_nodes,
        power_budget_w=power_budget_w,
        policy=policy,
        platform=platform,
    )
    logger.debug(
        "simulating fleet: policy=%s, %d jobs on %d nodes, budget %.0f W",
        policy_name,
        len(jobs),
        n_nodes,
        power_budget_w,
    )
    with obs.span("fleet.simulate", policy=policy_name, jobs=len(jobs)):
        schedule = PowerAwareScheduler(config).schedule(list(jobs))
    times = np.array([t for t, _ in schedule.power_timeline])
    powers = np.array([p for _, p in schedule.power_timeline])
    if len(times) > 1:
        spans = np.diff(np.append(times, schedule.makespan_s))
        spans = np.maximum(spans, 0.0)
        total = spans.sum()
        weights = spans / total if total > 0 else np.full_like(spans, 1.0 / len(spans))
        mean = float(np.average(powers, weights=weights))
        std = float(np.sqrt(np.average((powers - mean) ** 2, weights=weights)))
    else:
        mean = float(powers.mean()) if len(powers) else 0.0
        std = 0.0
    return FleetReport(
        policy_name=policy_name,
        schedule=schedule,
        mean_power_w=mean,
        peak_power_w=schedule.peak_power_w,
        power_std_w=std,
        makespan_s=schedule.makespan_s,
        jobs_completed=len(schedule.records),
    )


@dataclass(frozen=True)
class FleetTraceReport:
    """System-level outcome of one policy, from streamed node traces.

    Unlike :class:`FleetReport` (analytic per-cycle projections), these
    statistics come from actually rendering every scheduled job's node
    traces and streaming them through incremental aggregation — the
    engine's noise, per-node manufacturing variability and cap responses
    are all in the numbers, yet no job's full trace is ever retained.
    """

    policy_name: str
    schedule: ScheduleResult
    system: SystemPowerStats
    #: Per-sample node-power moments across every streamed trace (Welford).
    node_power_mean_w: float
    node_power_std_w: float
    node_power_peak_w: float
    jobs_completed: int
    samples_streamed: int
    chunks_streamed: int
    bytes_streamed: int

    @property
    def mean_power_w(self) -> float:
        """Mean system power over the schedule horizon."""
        return self.system.mean_power_w

    @property
    def peak_power_w(self) -> float:
        """Peak binned system power."""
        return self.system.peak_power_w

    @property
    def power_std_w(self) -> float:
        """Temporal standard deviation of system power."""
        return self.system.power_std_w

    @property
    def makespan_s(self) -> float:
        """Makespan of the underlying schedule."""
        return self.schedule.makespan_s

    @property
    def coefficient_of_variation(self) -> float:
        """Relative temporal variability of system power."""
        return self.power_std_w / self.mean_power_w if self.mean_power_w > 0 else 0.0


class FleetPlan:
    """What one fleet comparison derives once: digests and phase lists.

    A comparison admits, estimates and renders the same few workloads
    hundreds of times.  The plan canonicalizes each distinct workload
    instance once (its content digest) and builds each (digest, width)
    phase list once; admission estimates, every policy's render and the
    shard tasks' phase keys all read from it.

    A plan lives for one call: one :func:`simulate_fleet_traced`, or one
    :func:`compare_fleet_policies_traced` for both of its policies.
    Workloads are mutable dataclasses, so an instance-keyed memo that
    outlived the call could serve the digest and phases of content that
    has since changed.
    """

    def __init__(self) -> None:
        #: id(workload) -> (workload, digest); holding the instance keeps
        #: its id from being reused while the plan lives.
        self._digests: dict[int, tuple[object, str]] = {}
        self._phases: "dict[tuple[str, int], list[MacroPhase]]" = {}

    def digest(self, workload) -> str:
        """Content digest of one workload instance."""
        entry = self._digests.get(id(workload))
        if entry is None:
            entry = self._digests[id(workload)] = (workload, fingerprint(workload))
        return entry[1]

    def phase_key(self, workload, width: int) -> tuple[str, int]:
        """Content identity of the workload's phase list at ``width`` nodes."""
        return self.digest(workload), width

    def phase_list(self, workload, width: int) -> "list[MacroPhase]":
        """The workload's phases at ``width`` nodes, built once per key."""
        key = self.phase_key(workload, width)
        phases = self._phases.get(key)
        if phases is None:
            phases = self._phases[key] = workload.phases(layout_for(workload, width))
        return phases


def _job_seed(job_id: str, seed: int) -> int:
    """Stable per-job render seed (crc32: PYTHONHASHSEED-independent)."""
    return (zlib.crc32(job_id.encode("utf-8")) ^ seed) & 0x7FFFFFFF


def _suffixed(path: Path | None, suffix: str) -> Path | None:
    return path.with_name(path.name + suffix) if path is not None else None


@dataclass(frozen=True)
class _FleetOptions:
    """Every setting of one traced fleet run, built once per public call.

    The field names are the public keyword names, so each entry point
    builds its record from its own arguments (:meth:`from_arguments`).
    ``checkpoint`` and ``heartbeat`` are resolved against
    ``REPRO_FLEET_CHECKPOINT`` / ``REPRO_FLEET_HEARTBEAT`` there.
    """

    n_nodes: int
    power_budget_w: float | None
    bin_s: float
    chunk_samples: int | None
    engine_config: EngineConfig | None
    seed: int
    platform: "str | Platform | None"
    node_platforms: "list[str | Platform | NodeSpec] | None"
    workers: int | None
    checkpoint: Path | None
    checkpoint_every: int
    resume: bool
    heartbeat: Path | None
    heartbeat_interval_s: float
    progress: "Callable[[HeartbeatSnapshot], None] | None"

    def __post_init__(self) -> None:
        if self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.resume and self.checkpoint is None:
            raise ValueError(
                "resume=True requires checkpoint= (or REPRO_FLEET_CHECKPOINT)"
            )

    @classmethod
    def from_arguments(cls, arguments: dict) -> "_FleetOptions":
        """The record of a public entry point's ``locals()``."""
        settings = {name: arguments[name] for name in cls.__dataclass_fields__}
        for name, from_env in (
            ("checkpoint", shard.checkpoint_path_from_env),
            ("heartbeat", heartbeat_path_from_env),
        ):
            path = settings[name]
            settings[name] = Path(path) if path is not None else from_env()
        return cls(**settings)

    def for_policy(self, suffix: str) -> "_FleetOptions":
        """These options with policy-suffixed checkpoint and heartbeat paths."""
        return replace(
            self,
            checkpoint=_suffixed(self.checkpoint, suffix),
            heartbeat=_suffixed(self.heartbeat, suffix),
        )


@dataclass
class _PlannedRun:
    """The plan stage's output: one policy's schedule bound to node names."""

    plan: FleetPlan
    options: _FleetOptions
    policy_name: str
    monitor: "FleetMonitor | None"
    schedule: ScheduleResult
    pool: PerlmutterSystem
    #: Deduplicated node specs the tasks' ``spec_indices`` point into.
    spec_table: list[NodeSpec]
    tasks: list[shard.ShardJobTask]
    idle_node_w: float

    def capped_nodes(self, task: shard.ShardJobTask) -> list[GpuNode]:
        """The task's pool nodes, built on first touch, with its cap applied."""
        nodes = [self.pool.nodes[name] for name in task.node_names]
        for node in nodes:
            # A mixed pool may contain GPUs whose supported cap range
            # does not include the policy's cap; clamp per node.
            node.set_gpu_power_limit(shard.clamped_cap_w(task.cap_w, node.spec))
        return nodes


def _plan_run(
    plan: FleetPlan,
    jobs: list[Job],
    policy: CapPolicy,
    policy_name: str,
    options: _FleetOptions,
    monitor: "FleetMonitor | None",
) -> _PlannedRun:
    """Plan stage: schedule the stream, then replay its allocations.

    Each job is bound to node *names*; no node is built here.  The serial
    renderer or the shard workers construct exactly the nodes their jobs
    touch from the deduplicated spec table.  A monitored run materializes
    the whole pool, because the monitor surveys every node's idle band.
    """
    pool = PerlmutterSystem(
        n_nodes=options.n_nodes,
        platform=options.platform,
        node_platforms=options.node_platforms,
    )
    pool_specs = pool.node_specs()
    power_budget_w = options.power_budget_w
    if power_budget_w is None:
        # Node TDP: effectively unbounded.
        power_budget_w = sum(spec.tdp_w for spec in pool_specs)
    config = SchedulerConfig(
        n_nodes=options.n_nodes,
        power_budget_w=power_budget_w,
        policy=policy,
        platform=options.platform,
    )
    with obs.span("fleet.schedule_traced", policy=policy_name, jobs=len(jobs)):
        schedule = PowerAwareScheduler(config).schedule(list(jobs), plan)
    if monitor is not None:
        monitor.attach_pool(pool.materialize())
    workloads = {job.job_id: job.workload for job in jobs}
    spec_table: list[NodeSpec] = []
    spec_ids: dict[int, int] = {}
    tasks: list[shard.ShardJobTask] = []
    #: (analytic end time, job id) release queue for pool bookkeeping.
    release_queue: list[tuple[float, str]] = []
    for index, record in enumerate(schedule.records_chronological()):
        while release_queue and release_queue[0][0] <= record.start_s + 1e-9:
            _, done = heapq.heappop(release_queue)
            pool.release(done)
        names = pool.allocate_names(record.job_id, record.n_nodes)
        heapq.heappush(release_queue, (record.end_s, record.job_id))
        indices = []
        for name in names:
            spec = pool.node_spec(name)
            at = spec_ids.get(id(spec))
            if at is None:
                at = spec_ids[id(spec)] = len(spec_table)
                spec_table.append(spec)
            indices.append(at)
        workload = workloads[record.job_id]
        nominal_s = None
        if monitor is not None:
            # Uncapped runtime for the monitor's slowdown accounting.
            nominal_s = cached_estimate_run(
                workload, record.n_nodes, None, options.platform, plan
            ).runtime_s
        tasks.append(
            shard.ShardJobTask(
                index=index,
                job_id=record.job_id,
                start_s=record.start_s,
                end_s=record.end_s,
                cap_w=record.cap_w,
                n_nodes=record.n_nodes,
                node_names=tuple(names),
                spec_indices=tuple(indices),
                workload=workload,
                phase_key=plan.phase_key(workload, record.n_nodes),
                seed=_job_seed(record.job_id, options.seed),
                nominal_runtime_s=nominal_s,
            )
        )
    for _, job_id in release_queue:
        pool.release(job_id)
    idle_node_w = sum(spec.idle_node_w for spec in pool_specs) / len(pool_specs)
    return _PlannedRun(
        plan=plan,
        options=options,
        policy_name=policy_name,
        monitor=monitor,
        schedule=schedule,
        pool=pool,
        spec_table=spec_table,
        tasks=tasks,
        idle_node_w=idle_node_w,
    )


class _FleetFold:
    """Fold stage: merges job partials into the run, in chronological order.

    Every execution path (serial, sharded, and the dense test oracle)
    feeds its partials through one of these, which is what makes the
    paths bit-identical.  Besides the accumulator and the node-power
    moments it owns the stream counters, the checkpoint writes, the
    heartbeat and the monitor's replay of worker-recorded partials.
    """

    def __init__(self, run: _PlannedRun, run_fp: str | None = None) -> None:
        options = run.options
        self._run = run
        self._run_fp = run_fp
        self.accumulator = SystemPowerAccumulator(
            n_nodes=options.n_nodes, bin_s=options.bin_s, idle_node_w=run.idle_node_w
        )
        self.node_moments = RunningMoments()
        self.chunks_streamed = 0
        self.bytes_streamed = 0
        self.jobs_done = 0
        self.jobs_resumed = 0
        self.nodes_folded = 0
        self._beat: RunHeartbeat | None = None
        if options.heartbeat is not None or options.progress is not None:
            self._beat = RunHeartbeat(
                options.heartbeat,
                options.progress,
                label=f"fleet:{run.policy_name}",
                jobs_total=len(run.tasks),
                nodes_total=sum(task.n_nodes for task in run.tasks),
                min_interval_s=options.heartbeat_interval_s,
            )

    def resume(self) -> list[shard.ShardJobTask]:
        """Restore the checkpointed fold; return the tasks it does not cover."""
        tasks = self._run.tasks
        path = self._run.options.checkpoint
        state = shard.load_checkpoint(path)
        if state is None:
            return tasks
        if state.fingerprint != self._run_fp:
            raise ValueError(
                f"{path} was written by a different simulation (input "
                "fingerprint mismatch); refusing to resume"
            )
        skipped = min(state.jobs_done, len(tasks))
        self.accumulator.restore(state.accumulator_state)
        self.node_moments = RunningMoments.from_state(state.moments_state)
        self.chunks_streamed = state.chunks_streamed
        self.bytes_streamed = state.bytes_streamed
        self.jobs_done = self.jobs_resumed = skipped
        self.nodes_folded = sum(task.n_nodes for task in tasks[:skipped])
        if self._beat is not None:
            # Resumed jobs cost nothing this run; keep them out of the
            # nodes/sec (and therefore ETA) estimate.
            self._beat.resume_baseline(skipped, self.nodes_folded)
        obs.inc("repro_fleet_jobs_resumed_total", skipped)
        logger.debug(
            "resuming fleet (%s) from %s: %d/%d jobs already folded",
            self._run.policy_name,
            path,
            skipped,
            len(tasks),
        )
        return tasks[skipped:]

    def __call__(self, partial: shard.JobPartial) -> None:
        """Chan-merge one job's partial into the run aggregates."""
        self.accumulator.merge_partial(partial.power)
        for row in partial.moment_rows:
            self.node_moments.merge(RunningMoments.from_state(row))
        self.accumulator.add_busy_interval(
            partial.start_s, partial.start_s + partial.runtime_s, partial.n_nodes
        )
        self.chunks_streamed += partial.chunks
        self.bytes_streamed += partial.nbytes
        if partial.chunks:
            obs.inc("repro_fleet_chunks_total", partial.chunks)
        monitor = self._run.monitor
        if monitor is not None and partial.monitor is not None:
            monitor.absorb_job_partial(partial.monitor)
        self.jobs_done += 1
        self.nodes_folded += partial.n_nodes
        obs.inc("repro_fleet_jobs_rendered_total")
        obs.inc("repro_fleet_partials_merged_total")
        obs.gauge_set("repro_fleet_resident_bytes", self.accumulator.resident_bytes)
        options = self._run.options
        if options.checkpoint is not None and (
            self.jobs_done % options.checkpoint_every == 0
            or self.jobs_done == len(self._run.tasks)
        ):
            shard.save_checkpoint(
                options.checkpoint,
                shard.FleetCheckpoint(
                    version=shard.CHECKPOINT_VERSION,
                    fingerprint=self._run_fp,
                    jobs_done=self.jobs_done,
                    accumulator_state=self.accumulator.state(),
                    moments_state=self.node_moments.state(),
                    chunks_streamed=self.chunks_streamed,
                    bytes_streamed=self.bytes_streamed,
                ),
            )
            if self._beat is not None:
                self._beat.note_checkpoint()
        if self._beat is not None:
            self._beat.update(self.jobs_done, self.nodes_folded)

    def finish(self) -> SystemPowerStats:
        """Publish the final heartbeat and finalize the system statistics."""
        if self._beat is not None:
            self._beat.finish(self.jobs_done, self.nodes_folded)
        return self.accumulator.finalize()


def _execute(
    run: _PlannedRun, tasks: list[shard.ShardJobTask], fold: _FleetFold, workers: int
) -> None:
    """Execute stage: render ``tasks`` sharded or serially into ``fold``.

    The serial path doubles as the fallback when no process pool starts.
    """
    options, monitor = run.options, run.monitor
    if workers > 1 and tasks and shard.run_sharded(
        tasks,
        run.spec_table,
        workers=workers,
        engine_config=options.engine_config,
        bin_s=options.bin_s,
        chunk_samples=options.chunk_samples,
        monitor_config=monitor.config if monitor is not None else None,
        fold=fold,
    ):
        return
    for task in tasks:
        nodes = run.capped_nodes(task)
        tap_factories: tuple = ()
        if monitor is not None:
            monitor.on_job_start(
                task.job_id,
                n_nodes=task.n_nodes,
                cap_w=task.cap_w,
                start_s=task.start_s,
                end_s=task.end_s,
                nominal_runtime_s=task.nominal_runtime_s,
            )
            tap_factories = (lambda dt, job_id=task.job_id: monitor.tap(job_id, dt),)
        fold(
            shard.render_job_partial(
                nodes,
                run.plan.phase_list(task.workload, task.n_nodes),
                task,
                bin_s=options.bin_s,
                chunk_samples=options.chunk_samples,
                engine_config=options.engine_config,
                tap_factories=tap_factories,
            )
        )
        if monitor is not None:
            monitor.on_job_end(task.job_id)


def _report(run: _PlannedRun, fold: _FleetFold, workers: int) -> FleetTraceReport:
    """Report stage: finalize the fold, annotate the run ledger, report."""
    system = fold.finish()
    schedule, options, policy_name = run.schedule, run.options, run.policy_name
    logger.debug(
        "traced fleet (%s): %d jobs, %d chunks, %.1f MB streamed, peak %.0f W, "
        "%d/%d nodes built",
        policy_name,
        len(schedule.records),
        fold.chunks_streamed,
        fold.bytes_streamed / 1e6,
        system.peak_power_w,
        run.pool.nodes.built_count,
        options.n_nodes,
    )
    run_ledger.annotate_run(
        workers=workers,
        nodes=options.n_nodes,
        fleet={
            policy_name: {
                "jobs": len(schedule.records),
                "pool_nodes": options.n_nodes,
                "workers": workers,
                "mean_power_w": round(system.mean_power_w, 3),
                "peak_power_w": round(system.peak_power_w, 3),
                "energy_j": system.energy_j,
                "makespan_s": round(schedule.makespan_s, 3),
                "chunks_streamed": fold.chunks_streamed,
                "checkpoint": str(options.checkpoint) if options.checkpoint else None,
                "resumed_jobs": fold.jobs_resumed,
            }
        },
    )
    return FleetTraceReport(
        policy_name=policy_name,
        schedule=schedule,
        system=system,
        node_power_mean_w=fold.node_moments.mean,
        node_power_std_w=fold.node_moments.std,
        node_power_peak_w=fold.node_moments.peak,
        jobs_completed=len(schedule.records),
        samples_streamed=fold.accumulator.samples_added,
        chunks_streamed=fold.chunks_streamed,
        bytes_streamed=fold.bytes_streamed,
    )


def _simulate(
    plan: FleetPlan,
    jobs: list[Job],
    policy: CapPolicy,
    policy_name: str,
    options: _FleetOptions,
    monitor: "FleetMonitor | None",
) -> FleetTraceReport:
    """One policy's traced run: plan, execute, fold and report."""
    if options.checkpoint is not None and monitor is not None:
        raise ValueError(
            "monitor state is not checkpointable; run monitored fleets "
            "without checkpoint="
        )
    workers = shard.resolve_fleet_workers(len(jobs), options.workers)
    run_fp = None
    if options.checkpoint is not None:
        run_fp = shard.run_fingerprint(
            jobs,
            policy,
            policy_name,
            options.n_nodes,
            options.power_budget_w,
            options.bin_s,
            options.chunk_samples,
            options.engine_config,
            options.seed,
            get_platform(options.platform).id,
            options.node_platforms,
        )
    run = _plan_run(plan, jobs, policy, policy_name, options, monitor)
    fold = _FleetFold(run, run_fp)
    tasks = fold.resume() if options.resume else run.tasks
    with obs.span(
        "fleet.stream_traces", policy=policy_name, jobs=len(run.tasks), workers=workers
    ):
        _execute(run, tasks, fold, workers)
    return _report(run, fold, workers)


def simulate_fleet_traced(
    jobs: list[Job],
    policy: CapPolicy,
    policy_name: str,
    n_nodes: int = 16,
    power_budget_w: float | None = None,
    *,
    bin_s: float = 1.0,
    chunk_samples: int | None = None,
    engine_config: EngineConfig | None = None,
    seed: int = 0,
    monitor: "FleetMonitor | None" = None,
    platform: "str | Platform | None" = None,
    node_platforms: "list[str | Platform | NodeSpec] | None" = None,
    workers: int | None = None,
    checkpoint: "str | Path | None" = None,
    checkpoint_every: int = 64,
    resume: bool = False,
    heartbeat: "str | Path | None" = None,
    heartbeat_interval_s: float = 1.0,
    progress: "Callable[[HeartbeatSnapshot], None] | None" = None,
) -> FleetTraceReport:
    """Schedule a stream, render every job's traces, aggregate streaming.

    The schedule comes from the same analytic :class:`PowerAwareScheduler`
    pass as :func:`simulate_fleet`; the report's power statistics come
    from replaying that schedule against a real node pool
    (:class:`PerlmutterSystem` allocations, per-node variability, cap
    state).  A run has four stages.  *Plan* schedules the stream and
    binds each job to node names (a :class:`repro.capping.shard.
    ShardJobTask`).  *Execute* renders each job to a compact
    :class:`repro.capping.shard.JobPartial`, serially or sharded.
    *Fold* merges the partials in chronological job order (accumulator
    bins, node moments, busy intervals, checkpoints, heartbeat, monitor
    state): one fold for every path, which is why they are bit-identical.
    *Report* finalizes the statistics and annotates the run ledger.
    Admission, the render and the shard tasks read each workload's digest
    and phase lists from one :class:`FleetPlan`, built for this call.

    ``workers`` > 1 (or ``REPRO_SWEEP_WORKERS``) shards the schedule
    across worker processes (:func:`repro.capping.shard.run_sharded`):
    jobs are balanced by platform-aware render cost, workers rebuild
    their nodes from (name, spec) and ship partials back — raw trace
    chunks never cross IPC — and the run falls back to the serial path
    where no process pool can start.  Peak memory at the coordinator
    stays O(chunk) + O(makespan / bin_s) regardless of fleet size.
    Sharded workers also ship their spans and metric updates back, so
    the merged trace and counters match a serial run's.

    ``checkpoint`` (or ``REPRO_FLEET_CHECKPOINT``) atomically snapshots
    the fold every ``checkpoint_every`` jobs and after the last one;
    ``resume=True`` restores the snapshot — after validating a content
    fingerprint of the simulation inputs — and continues from the next
    chronological job, producing the same bits as an uninterrupted run.
    Incompatible with ``monitor`` (monitor state is not checkpointed).

    ``heartbeat`` (or ``REPRO_FLEET_HEARTBEAT``) publishes a live,
    atomically-replaced JSON progress snapshot — jobs folded,
    node-weighted progress, nodes/sec, ETA, checkpoint age — after each
    folded job (throttled to ``heartbeat_interval_s``); ``progress``
    receives the same :class:`repro.obs.heartbeat.HeartbeatSnapshot`
    objects in-process.  Observation-only, like the monitor.

    ``monitor`` attaches a :class:`repro.monitor.FleetMonitor`: on the
    serial path as a live engine-stream tap, on the sharded path by
    replaying worker-recorded :class:`repro.monitor.JobMonitorPartial`
    summaries in chronological order — both yield the same report.  It
    never writes back; the fleet report is bit-identical with or without
    it.  The caller finalizes the monitor.

    ``platform`` selects the hardware platform for the whole pool;
    ``node_platforms`` instead builds a *mixed* pool, cycling the given
    platforms/specs round-robin across nodes.  In a mixed pool each
    node's cap is clamped to its own GPU's supported range before being
    applied (a clamped-up cap can surface as a ``cap_violation`` health
    signal — the node genuinely cannot honour the policy's cap).

    The node pool is lazy: only nodes that jobs actually touch are
    constructed, except in monitored runs (the monitor surveys every
    node's idle band).
    """
    options = _FleetOptions.from_arguments(locals())
    return _simulate(FleetPlan(), jobs, policy, policy_name, options, monitor)


def compare_fleet_policies_traced(
    n_jobs: int = 24,
    n_nodes: int = 16,
    power_budget_w: float | None = None,
    seed: int = 0,
    *,
    bin_s: float = 1.0,
    chunk_samples: int | None = None,
    engine_config: EngineConfig | None = None,
    monitors: "tuple[FleetMonitor | None, FleetMonitor | None] | None" = None,
    platform: "str | Platform | None" = None,
    node_platforms: "list[str | Platform | NodeSpec] | None" = None,
    workers: int | None = None,
    checkpoint: "str | Path | None" = None,
    checkpoint_every: int = 64,
    resume: bool = False,
    heartbeat: "str | Path | None" = None,
    heartbeat_interval_s: float = 1.0,
    progress: "Callable[[HeartbeatSnapshot], None] | None" = None,
    scenario: "str | object | None" = None,
) -> tuple[FleetTraceReport, FleetTraceReport]:
    """(capped, uncapped) trace-streamed fleet reports, same job stream.

    ``scenario`` names a registered :class:`repro.capping.scenarios.
    FleetScenario` (or passes one directly): the job stream then comes
    from ``scenario.build_jobs(seed)`` — its arrival process, workload
    mix and failure drains — instead of the default :func:`job_stream`,
    and ``n_jobs`` is ignored (the scenario fixes its own job count).
    The caller remains responsible for aligning ``n_nodes`` /
    ``node_platforms`` with the scenario's pool (the CLI does this).

    ``monitors`` optionally attaches one :class:`repro.monitor.FleetMonitor`
    per policy, ``(capped, uncapped)`` — each policy replays the same job
    ids, so the two runs cannot share a single ledger.  Callers finalize.

    The other settings mean what they mean for
    :func:`simulate_fleet_traced`.  Both policies replay one job stream
    over one :class:`FleetPlan`, so each workload is digested, and each
    (workload, width) phase list built, once for the whole comparison.
    The two policies are distinct simulations, so the checkpoint and
    heartbeat base paths (argument or ``REPRO_FLEET_CHECKPOINT`` /
    ``REPRO_FLEET_HEARTBEAT``) get a per-policy suffix (``.capped`` /
    ``.uncapped``).
    """
    options = _FleetOptions.from_arguments(locals())
    if scenario is not None:
        from repro.capping.scenarios import get_scenario

        jobs = get_scenario(scenario).build_jobs(seed=seed)
    else:
        jobs = job_stream(n_jobs=n_jobs, seed=seed)
    plan = FleetPlan()
    policies = (
        (CapPolicy.half_tdp(platform), "50% TDP policy", ".capped"),
        (CapPolicy.uncapped(platform), "uncapped", ".uncapped"),
    )
    capped, uncapped = [
        _simulate(plan, jobs, policy, name, options.for_policy(suffix), monitor)
        for (policy, name, suffix), monitor in zip(policies, monitors or (None, None))
    ]
    return capped, uncapped


def _policy_task(
    task: tuple[bool, str, int, int, float | None, int, str]
) -> FleetReport:
    """Worker-side task: one policy over a regenerated job stream.

    The stream is rebuilt from ``seed`` inside the worker (cheap and
    deterministic), so only this small task tuple crosses the pool
    boundary (the platform travels as its registry id).
    """
    capped, policy_name, n_jobs, n_nodes, power_budget_w, seed, platform_id = task
    policy = (
        CapPolicy.half_tdp(platform_id) if capped else CapPolicy.uncapped(platform_id)
    )
    jobs = job_stream(n_jobs=n_jobs, seed=seed)
    return simulate_fleet(
        jobs, policy, policy_name, n_nodes, power_budget_w, platform_id
    )


def compare_fleet_policies(
    n_jobs: int = 24,
    n_nodes: int = 16,
    power_budget_w: float | None = None,
    seed: int = 0,
    platform: "str | Platform | None" = None,
) -> tuple[FleetReport, FleetReport]:
    """(capped, uncapped) fleet reports for the same job stream.

    The two policies are independent simulations over the same seeded
    stream, so they execute as one two-task sweep.
    """
    platform_id = get_platform(platform).id
    tasks = [
        (True, "50% TDP policy", n_jobs, n_nodes, power_budget_w, seed, platform_id),
        (False, "uncapped", n_jobs, n_nodes, power_budget_w, seed, platform_id),
    ]
    capped, uncapped = SweepExecutor().map(_policy_task, tasks)
    return capped, uncapped
