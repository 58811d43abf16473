"""Dense reference for the streaming fleet path.

:func:`repro.capping.fleet.simulate_fleet_traced` renders each job as a
stream of fixed-size chunks and folds them without ever holding a full
trace.  This module is the readable specification it must reproduce bit
for bit: it plans the run with the same plan stage, renders every job's
complete traces with :meth:`PowerEngine.run`, retains all of them, and
only then re-chunks each retained trace into a
:class:`repro.capping.shard.JobPartial` and feeds it through the same
fold object.  Identical chunk boundaries and the one fold make the two
bit-identical; they differ only in peak memory, O(sum of traces) here
against O(chunk) when streaming — the fleet memory bench measures that.
"""

from __future__ import annotations

from repro.capping import fleet, shard
from repro.capping.policy import CapPolicy
from repro.capping.scheduler import Job
from repro.hardware.system import JobPowerPartial, RunningMoments
from repro.runner.engine import (
    DEFAULT_STREAM_CHUNK,
    EngineConfig,
    PowerEngine,
    render_chunk_samples,
)
from repro.runner.trace import RunResult


def dense_fleet_traced(
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
    platform=None,
    node_platforms=None,
) -> fleet.FleetTraceReport:
    """:func:`simulate_fleet_traced`'s report, from retained dense traces."""
    options = fleet._FleetOptions(
        n_nodes=n_nodes,
        power_budget_w=power_budget_w,
        bin_s=bin_s,
        chunk_samples=chunk_samples,
        engine_config=engine_config,
        seed=seed,
        platform=platform,
        node_platforms=node_platforms,
        workers=1,
        checkpoint=None,
        checkpoint_every=1,
        resume=False,
        heartbeat=None,
        heartbeat_interval_s=1.0,
        progress=None,
    )
    run = fleet._plan_run(
        fleet.FleetPlan(), jobs, policy, policy_name, options, monitor=None
    )
    fold = fleet._FleetFold(run)
    retained = [
        (
            task,
            PowerEngine(run.capped_nodes(task), engine_config).run(
                run.plan.phase_list(task.workload, task.n_nodes),
                label=task.job_id,
                seed=task.seed,
            ),
        )
        for task in run.tasks
    ]
    step = chunk_samples or render_chunk_samples() or DEFAULT_STREAM_CHUNK
    for task, result in retained:
        fold(rechunk(task, result, bin_s, step))
    return fleet._report(run, fold, workers=1)


def rechunk(
    task: shard.ShardJobTask, result: RunResult, bin_s: float, step: int
) -> shard.JobPartial:
    """One retained run as the partial its ``step``-sample stream yields."""
    power = JobPowerPartial(start_s=task.start_s, bin_s=bin_s)
    moment_rows: list[tuple] = []
    chunks = 0
    nbytes = 0
    for trace in result.traces:
        for start in range(0, len(trace.times), step):
            times = trace.times[start : start + step]
            powers = trace.node_power[start : start + step]
            power.add_samples(task.start_s, times, powers, trace.sample_interval_s)
            moment_rows.append(RunningMoments.from_batch(powers).state())
            chunks += 1
            nbytes += int(powers.nbytes)
    power.trim()
    return shard.JobPartial(
        index=task.index,
        job_id=task.job_id,
        start_s=task.start_s,
        n_nodes=task.n_nodes,
        runtime_s=result.runtime_s,
        power=power,
        moment_rows=moment_rows,
        chunks=chunks,
        nbytes=nbytes,
    )
