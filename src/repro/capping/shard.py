"""Sharded execution and checkpointing for the traced fleet simulation.

A 100k-node fleet cannot be rendered by one Python process in useful
time, and a week-long-horizon simulation should not restart from zero
after an interruption.  This layer extends the ``REPRO_SWEEP_WORKERS``
machinery of :mod:`repro.runner.sweep` to the fleet path:

* The coordinator plans the whole schedule (allocation replay binds each
  job to node *names* — no node objects are built), balances the jobs
  across shards by per-node render cost (platform-aware, so mixed
  ``node_platforms`` pools split evenly), and each worker process
  rebuilds its jobs' nodes from (name, spec) and renders them through
  :meth:`repro.runner.engine.PowerEngine.stream`.
* Workers never ship raw trace chunks.  Each job comes back as a
  compact :class:`JobPartial`: an origin-offset
  :class:`~repro.hardware.system.JobPowerPartial` energy array, one
  :class:`~repro.hardware.system.RunningMoments` row per chunk, and (for
  monitored runs) a :class:`~repro.monitor.collector.JobMonitorPartial`.
  The coordinator Chan-merges partials in chronological job order — the
  canonical fold the serial path also uses, so sharded output is
  bit-identical to single-process output by construction.
* :class:`FleetCheckpoint` snapshots the fold state (accumulator bins,
  node moments, stream counters, jobs folded) to an atomic on-disk
  pickle (``REPRO_FLEET_CHECKPOINT``).  Per-job render seeds are
  content-derived, so no RNG stream state needs saving: resuming
  recomputes the schedule, validates the input fingerprint, restores the
  fold and continues from the next chronological job — bit-identical to
  an uninterrupted run.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

from repro import obs
from repro.obs import merge as obs_merge
from repro.hardware.node import GpuNode
from repro.hardware.platform import NodeSpec
from repro.hardware.system import JobPowerPartial, RunningMoments
from repro.runner.cache import atomic_write_pickle, fingerprint
from repro.runner.engine import EngineConfig, PowerEngine, import_render_modules
from repro.runner.sweep import workers_from_env
from repro.vasp.parallel import layout_for
from repro.vasp.workload import VaspWorkload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.monitor.collector import JobMonitorPartial, MonitorConfig
    from repro.vasp.phases import MacroPhase

logger = logging.getLogger(__name__)

#: Environment variable: default checkpoint path for traced fleet runs.
CHECKPOINT_ENV = "REPRO_FLEET_CHECKPOINT"
#: On-disk checkpoint format version.
CHECKPOINT_VERSION = 1


def resolve_fleet_workers(n_jobs: int, workers: int | None = None) -> int:
    """Fleet worker count: explicit arg > ``REPRO_SWEEP_WORKERS`` > serial.

    Unlike grid sweeps (which size themselves to the host), the fleet
    stays serial unless parallelism is asked for — the serial path *is*
    the reference output, and small fleets don't amortize pool startup.
    """
    if workers is None:
        workers = workers_from_env()
    if workers is None:
        return 1
    return max(min(workers, n_jobs), 1)


def checkpoint_path_from_env() -> Path | None:
    """Checkpoint location from ``REPRO_FLEET_CHECKPOINT`` (None = off)."""
    raw = os.environ.get(CHECKPOINT_ENV, "").strip()
    return Path(raw) if raw else None


# ----------------------------------------------------------------------
# Task and partial records (everything that crosses the pool boundary)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardJobTask:
    """One scheduled job, bound to its allocated nodes, ready to render."""

    #: Chronological position in the schedule (the fold order).
    index: int
    job_id: str
    start_s: float
    end_s: float
    cap_w: float
    n_nodes: int
    node_names: tuple[str, ...]
    #: Per-node indices into the shard's spec table.
    spec_indices: tuple[int, ...]
    workload: VaspWorkload
    #: (workload content digest, width): the coordinator's plan key for
    #: this job's phase list, so workers never re-digest the workload.
    phase_key: tuple[str, int]
    #: Content-derived render seed (crc32 of the job id ^ run seed).
    seed: int
    #: Uncapped runtime estimate (monitored runs only).
    nominal_runtime_s: float | None = None


@dataclass(frozen=True)
class ShardTask:
    """One worker's batch of the schedule plus shared render parameters."""

    shard_index: int
    specs: tuple[NodeSpec, ...]
    engine_config: EngineConfig | None
    bin_s: float
    chunk_samples: int | None
    monitor_config: "MonitorConfig | None"
    jobs: tuple[ShardJobTask, ...]
    #: (trace, metrics, profile) layers the coordinator is collecting —
    #: the worker captures matching :class:`repro.obs.merge.ObsPartial`
    #: snapshots.  None (obs off at the coordinator) skips capture
    #: entirely.  Two-element tuples (pre-profiler callers) mean
    #: profile off.
    obs_capture: tuple[bool, ...] | None = None


@dataclass
class JobPartial:
    """Compact per-job render result shipped from worker to coordinator."""

    index: int
    job_id: str
    start_s: float
    n_nodes: int
    runtime_s: float
    power: JobPowerPartial
    #: One RunningMoments.state() row per streamed node-power chunk, in
    #: chunk order — merged rows reproduce the serial update sequence.
    moment_rows: list[tuple]
    chunks: int
    nbytes: int
    monitor: "JobMonitorPartial | None" = None


@dataclass
class ShardResult:
    """One batch's render results plus the worker's observability capture."""

    jobs: list[JobPartial]
    #: Spans/metrics the worker recorded while rendering this batch;
    #: None when the coordinator is not collecting.
    obs: "obs_merge.ObsPartial | None" = None


# ----------------------------------------------------------------------
# Rendering (shared by the serial path and the shard workers)
# ----------------------------------------------------------------------
def render_job_partial(
    nodes: list[GpuNode],
    phases: "list[MacroPhase]",
    job: ShardJobTask,
    *,
    bin_s: float,
    chunk_samples: int | None,
    engine_config: EngineConfig | None,
    tap_factories: Sequence[Callable[[float], Callable]] = (),
) -> JobPartial:
    """Render one job's traces and reduce them to a :class:`JobPartial`.

    This is the single render-and-reduce routine both execution paths
    run — in-process for serial fleets, inside a worker for sharded
    ones — which is what makes them bit-identical.  Each
    ``tap_factories`` entry receives the engine's sample interval and
    returns an ``on_chunk`` tap (live monitor or worker probe).
    """
    engine = PowerEngine(nodes, engine_config)
    taps = tuple(
        factory(engine.config.base_interval_s) for factory in tap_factories
    )
    streamed = engine.stream(
        phases,
        label=job.job_id,
        seed=job.seed,
        chunk_samples=chunk_samples,
        on_chunk=taps or None,
    )
    power = JobPowerPartial(start_s=job.start_s, bin_s=bin_s)
    moment_rows: list[tuple] = []
    chunks = 0
    nbytes = 0
    dt = streamed.base_interval_s
    for chunk in streamed.chunks:
        if chunk.component != "node":
            continue
        power.add_samples(job.start_s, chunk.times, chunk.values, dt)
        moment_rows.append(RunningMoments.from_batch(chunk.values).state())
        chunks += 1
        nbytes += int(chunk.values.nbytes)
    power.trim()
    return JobPartial(
        index=job.index,
        job_id=job.job_id,
        start_s=job.start_s,
        n_nodes=job.n_nodes,
        runtime_s=streamed.runtime_s,
        power=power,
        moment_rows=moment_rows,
        chunks=chunks,
        nbytes=nbytes,
    )


def clamped_cap_w(cap_w: float, spec: NodeSpec) -> float:
    """A policy cap clamped to one node's supported GPU cap range."""
    gpu = spec.gpu
    return min(max(cap_w, gpu.cap_min_w), gpu.cap_max_w)


#: Worker-process-global phase memo: batched submission sends several
#: small batches to the same worker process, and jobs of one (workload,
#: width) must not re-run ~25 ms of SCF modelling per batch.  Keyed by
#: each task's content-derived ``phase_key``, so it is safe across
#: batches of different runs.
_WORKER_PHASE_CACHE: dict[tuple[str, int], list] = {}


def _render_shard(task: ShardTask) -> ShardResult:
    """Worker entry point: render every job in one batch.

    Nodes are rebuilt from (name, spec) — node construction is
    deterministic, so worker-built nodes match coordinator-built ones
    bit for bit.  When ``task.obs_capture`` is set, the batch renders
    under a fresh in-memory tracer/registry whose contents ship back in
    the :class:`ShardResult` (see :mod:`repro.obs.merge`); capture is
    observation-only, so the job partials are byte-identical either way.
    """
    token = None
    if task.obs_capture is not None:
        trace_on, metrics_on, profile_on = (*task.obs_capture, False)[:3]
        token = obs_merge.begin_worker_capture(
            trace=trace_on,
            metrics=metrics_on,
            profile=profile_on,
            process_label=f"repro fleet worker {os.getpid()}",
        )
    try:
        with obs.span(
            "shard.render_batch", shard=task.shard_index, jobs=len(task.jobs)
        ):
            partials = [
                _render_task_job(job, task, _WORKER_PHASE_CACHE)
                for job in task.jobs
            ]
    finally:
        captured = (
            obs_merge.finish_worker_capture(token) if token is not None else None
        )
    return ShardResult(jobs=partials, obs=captured)


def _render_task_job(
    job: ShardJobTask, task: ShardTask, phase_cache: dict[tuple[str, int], list]
) -> JobPartial:
    specs = [task.specs[i] for i in job.spec_indices]
    nodes = [
        GpuNode(name=name, spec=spec) for name, spec in zip(job.node_names, specs)
    ]
    for node in nodes:
        node.set_gpu_power_limit(clamped_cap_w(job.cap_w, node.spec))
    phases = phase_cache.get(job.phase_key)
    if phases is None:
        parallel = layout_for(job.workload, job.n_nodes)
        phases = phase_cache[job.phase_key] = job.workload.phases(parallel)
    probe = None
    tap_factories: tuple = ()
    if task.monitor_config is not None:
        from repro.monitor.collector import JobProbe

        probe = JobProbe(
            task.monitor_config,
            job_id=job.job_id,
            n_nodes=job.n_nodes,
            cap_w=job.cap_w,
            start_s=job.start_s,
            end_s=job.end_s,
            nominal_runtime_s=job.nominal_runtime_s,
            node_specs=dict(zip(job.node_names, specs)),
        )
        tap_factories = (probe.tap,)
    partial = render_job_partial(
        nodes,
        phases,
        job,
        bin_s=task.bin_s,
        chunk_samples=task.chunk_samples,
        engine_config=task.engine_config,
        tap_factories=tap_factories,
    )
    if probe is not None:
        partial.monitor = probe.partial
    return partial


# ----------------------------------------------------------------------
# Shard planning and dispatch
# ----------------------------------------------------------------------
def estimate_task_cost(task: ShardJobTask, specs: Sequence[NodeSpec]) -> float:
    """Relative render cost of one job (for shard balancing).

    Samples scale with scheduled duration; streams per node with the
    node's component count (cpu + memory + node + its GPUs), which is
    what makes mixed-platform pools balance by real work, not job count.
    """
    duration = max(task.end_s - task.start_s, 1.0)
    streams = sum(3 + specs[i].gpus_per_node for i in task.spec_indices)
    return duration * streams


def plan_shards(
    tasks: Sequence[ShardJobTask],
    specs: Sequence[NodeSpec],
    n_shards: int,
) -> list[list[ShardJobTask]]:
    """Balance jobs across shards (LPT greedy on estimated render cost).

    Deterministic: ties break on chronological index, and each shard's
    slice is returned in chronological order.  Empty shards are dropped.
    """
    n_shards = max(min(n_shards, len(tasks)), 1)
    costs = [estimate_task_cost(task, specs) for task in tasks]
    order = sorted(range(len(tasks)), key=lambda i: (-costs[i], i))
    loads = [0.0] * n_shards
    members: list[list[ShardJobTask]] = [[] for _ in range(n_shards)]
    for i in order:
        target = min(range(n_shards), key=lambda s: (loads[s], s))
        loads[target] += costs[i]
        members[target].append(tasks[i])
    for slice_ in members:
        slice_.sort(key=lambda task: task.index)
    return [slice_ for slice_ in members if slice_]


def default_batch_jobs(
    n_tasks: int, n_shards: int, target_batches: int = 4
) -> int:
    """Jobs per submitted batch (aim ``target_batches`` per shard).

    Batching trades a little IPC overhead for steady coordinator-side
    progress: with whole-shard futures the chronological fold — and with
    it checkpoints and the heartbeat — only advances when an entire
    shard completes.  A handful of batches per shard keeps partials
    arriving throughout the run without flooding the pool with
    single-job tasks.
    """
    return max(1, math.ceil(n_tasks / max(n_shards * target_batches, 1)))


def run_sharded(
    tasks: Sequence[ShardJobTask],
    specs: Sequence[NodeSpec],
    *,
    workers: int,
    engine_config: EngineConfig | None,
    bin_s: float,
    chunk_samples: int | None,
    monitor_config: "MonitorConfig | None",
    fold: Callable[[JobPartial], None],
    batch_jobs: int | None = None,
) -> bool:
    """Render job tasks across worker processes, folding chronologically.

    ``fold`` is invoked in chronological (schedule) order as soon as the
    prefix is complete — a checkpoint written mid-run therefore always
    covers an exact chronological prefix.  Each shard's slice is
    submitted as several chronological batches (``batch_jobs`` jobs
    each), interleaved round-robin across shards, so early-schedule
    partials arrive early and the fold advances steadily.

    While the coordinator's observability is active, every batch comes
    back with an :class:`repro.obs.merge.ObsPartial` that is absorbed
    into the live tracer/registry — worker spans land in the merged
    Chrome trace under their own pid row, and merged counter totals
    equal a serial run's exactly.

    Returns False when no process pool could be started before any work
    was folded (the caller falls back to the serial path, which produces
    identical results).
    """
    if not tasks:
        return True
    shards = plan_shards(tasks, specs, workers)
    capture = obs_merge.capture_flags()
    if batch_jobs is None:
        batch_jobs = default_batch_jobs(len(tasks), len(shards))
    per_shard_batches: list[list[ShardTask]] = []
    for i, slice_ in enumerate(shards):
        per_shard_batches.append(
            [
                ShardTask(
                    shard_index=i,
                    specs=tuple(specs),
                    engine_config=engine_config,
                    bin_s=bin_s,
                    chunk_samples=chunk_samples,
                    monitor_config=monitor_config,
                    jobs=tuple(slice_[at : at + batch_jobs]),
                    obs_capture=capture,
                )
                for at in range(0, len(slice_), batch_jobs)
            ]
        )
    # Round-robin across shards: every shard's chronologically-earliest
    # batch is in flight first, so the fold's prefix completes early.
    rounds = max(len(batches) for batches in per_shard_batches)
    ordered = [
        batches[round_index]
        for round_index in range(rounds)
        for batches in per_shard_batches
        if round_index < len(batches)
    ]
    obs.gauge_set("repro_fleet_shard_workers", len(shards))
    expected = sorted(task.index for task in tasks)
    pending: dict[int, JobPartial] = {}
    folded = 0
    import_render_modules()
    try:
        try:
            with ProcessPoolExecutor(max_workers=len(shards)) as pool:
                futures = [pool.submit(_render_shard, st) for st in ordered]
                for future in as_completed(futures):
                    result = future.result()
                    obs_merge.absorb_partial(result.obs)
                    for partial in result.jobs:
                        pending[partial.index] = partial
                    while folded < len(expected) and expected[folded] in pending:
                        fold(pending.pop(expected[folded]))
                        folded += 1
        except (OSError, PermissionError, ImportError) as exc:
            # Pools need fork/spawn and pipes; restricted hosts fall back
            # to the serial path — unless results were already folded, in
            # which case a retry would double-count and the error must
            # surface.
            if folded:
                raise
            logger.warning(
                "fleet process pool unavailable (%s: %s); falling back to "
                "serial rendering of %d jobs",
                type(exc).__name__,
                exc,
                len(tasks),
            )
            return False
    finally:
        # The gauge reports *live* pool width; once the run is over (or
        # dead) there are zero shard workers — leaving the last pool size
        # behind would misreport idle state to `repro obs` and scrapes.
        obs.gauge_set("repro_fleet_shard_workers", 0)
    return True


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
@dataclass
class FleetCheckpoint:
    """Resumable fold state of a traced fleet simulation.

    Everything downstream of rendering is here: the accumulator's bins,
    the node-power moments and the stream counters, plus how many
    chronological jobs they cover.  The schedule itself is *not* stored —
    it is recomputed on resume (deterministic), and ``fingerprint``
    (over jobs, policy, pool and engine inputs) guards against resuming
    into a different simulation.  Render seeds are content-derived per
    job, so no RNG stream state is needed.
    """

    version: int
    fingerprint: str
    jobs_done: int
    accumulator_state: dict
    moments_state: tuple
    chunks_streamed: int
    bytes_streamed: int


def run_fingerprint(*parts) -> str:
    """Content fingerprint binding a checkpoint to its simulation inputs."""
    return fingerprint("fleet_checkpoint", CHECKPOINT_VERSION, *parts)


def save_checkpoint(path: str | Path, checkpoint: FleetCheckpoint) -> None:
    """Atomically persist a checkpoint (crash-safe: old file or new file)."""
    atomic_write_pickle(Path(path), checkpoint)
    obs.inc("repro_fleet_checkpoint_writes_total")


def load_checkpoint(path: str | Path) -> FleetCheckpoint | None:
    """Load a checkpoint; None when the file does not exist.

    Raises
    ------
    ValueError
        If the file exists but is not a compatible checkpoint.
    """
    path = Path(path)
    if not path.is_file():
        return None
    try:
        with path.open("rb") as fh:
            value = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError) as exc:
        raise ValueError(f"unreadable fleet checkpoint {path}: {exc}") from exc
    if not isinstance(value, FleetCheckpoint) or value.version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path} is not a version-{CHECKPOINT_VERSION} fleet checkpoint"
        )
    obs.inc("repro_fleet_checkpoint_loads_total")
    return value
