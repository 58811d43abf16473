"""The benchmark's three workloads: seeded inputs, timed bodies, checks.

Every workload is a closed loop run as a batch by one caller: the body
issues its next operation only when the previous one has returned.  An
operation is one fleet policy simulation or one cap-study grid point.

``build_inputs`` is what set-up covers; ``run_iteration`` is the timed
body; ``check_iteration`` turns an iteration's outputs into per-operation
verdicts after the clock has stopped.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Seed whose per-operation digests are pinned in ``golden.json``.
DEFAULT_SEED = 0
WORKLOADS = ("fleet-vasp", "fleet-zoo-sharded", "cap-study")
GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: ``repro fleet`` defaults: 1 s trace resolution, 1 s power bins.
FLEET_RESOLUTION_S = 1.0
FLEET_BIN_S = 1.0

#: fleet-vasp: the canonical ``repro fleet --jobs 200 --nodes 1000``.
VASP_JOBS = 200
VASP_NODES = 1000

#: fleet-zoo-sharded: many distinct (workload, width) keys on a mixed
#: pool, rendered by two worker processes.
ZOO_JOBS = 480
ZOO_NODES = 128
ZOO_WORKERS = 2
ZOO_PLATFORMS = ("a100-40g", "h100-sxm")
ZOO_MIX: tuple[tuple[str, float], ...] = (
    ("PdO4", 0.10),
    ("PdO2", 0.08),
    ("GaAsBi-64", 0.06),
    ("CuC_vdw", 0.06),
    ("Si256_hse", 0.05),
    ("B.hR105_hse", 0.04),
    ("Si128_acfdtr", 0.05),
    ("milc:small", 0.08),
    ("milc:medium", 0.06),
    ("milc:large", 0.04),
    ("cloudsc:small", 0.06),
    ("cloudsc:medium", 0.05),
    ("cloudsc:large", 0.03),
    ("multiphysics:small", 0.05),
    ("multiphysics:medium", 0.04),
    ("multiphysics:large", 0.03),
    ("entropy:low", 0.04),
    ("entropy:mid", 0.03),
    ("entropy:high", 0.03),
    ("gemm-stream:burst", 0.03),
    ("gemm-stream:standard", 0.02),
)
#: (at_s, nodes drained, duration_s) node-drain windows.
ZOO_FAILURES = ((600.0, 4, 900.0), (3000.0, 8, 600.0), (6000.0, 2, 1200.0))

#: cap-study: every Table I benchmark plus the zoo models' default
#: variants, at every healthy width, uncapped and down to the a100-40g
#: cap floor (100 W).
CAP_ZOO = ("milc", "cloudsc", "multiphysics", "entropy", "gemm-stream")
CAP_GRID_W: tuple[float | None, ...] = (None, 300.0, 250.0, 200.0, 150.0, 100.0)

#: Host-speed reference.  The shared machines this runs on drift by up to
#: ±25 % over minutes, which would swamp any regression bound.  Every
#: host time is therefore scaled by ``REFERENCE_KERNEL_S / k``, where
#: ``k`` is the median time of :func:`kernel_s` over the same run: times
#: are reported in seconds of a host on which the kernel takes 60 ms.
REFERENCE_KERNEL_S = 0.06

#: Significant digits kept in digests: absorbs last-ulp differences
#: between numpy builds, keeps every real change to a statistic visible.
DIGEST_DIGITS = 8


@dataclass
class Inputs:
    """Everything set-up produces; the body consumes only this."""

    workload: str
    seed: int
    jobs: list = field(default_factory=list)
    #: cap-study: (key, workload object, width, cap) grid points.
    points: list = field(default_factory=list)
    surrogate: object = None

    @property
    def job_ids(self) -> frozenset[str]:
        """Submitted job ids: the completion invariant's reference."""
        return frozenset(job.job_id for job in self.jobs)


@dataclass
class Op:
    """One operation's outcome: a digest, or the reason it failed."""

    key: str
    digest: str | None = None
    error: str | None = None


@dataclass
class Iteration:
    """What one timed body produced (checked after the clock stops)."""

    wall_s: float
    #: Simulated node-seconds the body rendered.
    sim_node_s: float
    #: Latency of each operation, in ms.
    latencies_ms: list[float]
    #: Cache misses this iteration (equal across iterations of a run).
    misses: dict[str, int]
    ops: list[Op] = field(default_factory=list)
    #: (predicted, engine) pairs behind ``surrogate_mape`` (cap-study).
    accuracy_pairs: list[tuple[float, float]] = field(default_factory=list)
    #: Peak RSS of the coordinator during the body (KiB; None where the
    #: peak count cannot be reset).
    peak_rss_kb: int | None = None


def digest(*values) -> str:
    """Short, rounding-tolerant digest of simulated statistics."""
    parts = []
    for value in values:
        if isinstance(value, (bool, int, str)) or value is None:
            parts.append(repr(value))
        else:
            parts.append(format(float(value), f".{DIGEST_DIGITS}g"))
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


def kernel_s(repeats: int = 5) -> float:
    """Median time of a fixed interpreter + numpy kernel (host speed)."""
    import numpy as np

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(120_000):
            total += i * i % 7
            table[i % 1000] = total
        values = np.random.default_rng(1).standard_normal(1_000_000)
        np.sort(values)
        np.cumsum(values)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def load_golden() -> dict:
    if not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


# ----------------------------------------------------------------------
# Inputs (set-up)
# ----------------------------------------------------------------------
def zoo_scenario():
    """The fleet-zoo-sharded scenario, built from the public API."""
    from repro.capping.scenarios import ArrivalProcess, FailureEvent, FleetScenario

    return FleetScenario(
        id="perfbench-zoo",
        description="Table I VASP plus the workload zoo on a mixed pool",
        n_jobs=ZOO_JOBS,
        n_nodes=ZOO_NODES,
        mix=ZOO_MIX,
        arrival=ArrivalProcess(kind="poisson", mean_interarrival_s=60.0),
        platforms=ZOO_PLATFORMS,
        failures=tuple(
            FailureEvent(at_s=at, n_nodes=nodes, duration_s=duration)
            for at, nodes, duration in ZOO_FAILURES
        ),
    )


def cap_points() -> list[tuple[str, object, int, float | None]]:
    """The cap-study grid: (key, workload, width, cap)."""
    from repro.vasp.benchmarks import BENCHMARKS
    from repro.workloads import resolve_widths, resolve_workload

    points = []
    for ref in (*BENCHMARKS, *CAP_ZOO):
        workload = resolve_workload(ref)
        for width in resolve_widths(ref):
            for cap in CAP_GRID_W:
                points.append((f"{ref}@{width}@{cap}", workload, width, cap))
    return points


def build_inputs(workload: str, seed: int, store: str | None = None) -> Inputs:
    """Set-up: registries (imported with the CLI), job stream or grid.

    cap-study also needs a surrogate: ``load_or_train`` from ``store``
    (trains and writes when the store is empty).
    """
    import repro.cli  # noqa: F401  (registers platforms, workloads, scenarios)

    inputs = Inputs(workload=workload, seed=seed)
    if workload == "fleet-vasp":
        from repro.capping.fleet import job_stream

        inputs.jobs = job_stream(n_jobs=VASP_JOBS, seed=seed)
    elif workload == "fleet-zoo-sharded":
        inputs.jobs = zoo_scenario().build_jobs(seed=seed)
    elif workload == "cap-study":
        from repro.prediction import load_or_train

        inputs.points = cap_points()
        inputs.surrogate = load_or_train(directory=store)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


# ----------------------------------------------------------------------
# Timed bodies
# ----------------------------------------------------------------------
def reset_caches() -> None:
    """Cold start for one iteration, through the caches' public API."""
    from repro.capping.scheduler import estimate_cache
    from repro.experiments.common import run_cache
    from repro.prediction import reset_surrogate_stats
    from repro.runner.sweep import reset_sweep_stats

    estimate_cache().clear()
    run_cache().clear()
    reset_sweep_stats()
    reset_surrogate_stats()
    gc.collect()


def cache_misses() -> dict[str, int]:
    from repro.capping.scheduler import estimate_cache
    from repro.experiments.common import run_cache

    return {
        "estimate": estimate_cache().stats().misses,
        "run": run_cache().stats().misses,
    }


class ShardWatch:
    """Records whether ``run_sharded`` ever fell back to serial.

    ``run_sharded`` returns False when no process pool could start; the
    fleet then renders serially and the results look right, so the
    return value is the only sign.  Installed for every run, traced or
    not: one call per policy simulation.
    """

    def __init__(self) -> None:
        self.results: list[bool] = []
        self._original = None

    def install(self) -> None:
        from repro.capping import shard

        original = self._original = shard.run_sharded
        results = self.results

        def run_sharded(*args, **kwargs):
            pooled = original(*args, **kwargs)
            results.append(bool(pooled))
            return pooled

        shard.run_sharded = run_sharded

    def uninstall(self) -> None:
        from repro.capping import shard

        if self._original is not None:
            shard.run_sharded = self._original
            self._original = None


def run_iteration(inputs: Inputs) -> tuple[Iteration, object]:
    """One timed body; returns its timing and the raw outputs.

    Call :func:`reset_caches` first: every iteration starts cold.
    """
    if inputs.workload == "fleet-vasp":
        return _fleet_vasp(inputs)
    if inputs.workload == "fleet-zoo-sharded":
        return _fleet_zoo(inputs)
    return _cap_study(inputs)


def _fleet_vasp(inputs: Inputs) -> tuple[Iteration, object]:
    from repro.capping.fleet import compare_fleet_policies_traced
    from repro.runner.engine import EngineConfig

    done: list[float] = []

    def progress(snapshot) -> None:
        if snapshot.done:
            done.append(time.perf_counter())

    start = time.perf_counter()
    reports = compare_fleet_policies_traced(
        n_jobs=VASP_JOBS,
        n_nodes=VASP_NODES,
        seed=inputs.seed,
        bin_s=FLEET_BIN_S,
        engine_config=EngineConfig(base_interval_s=FLEET_RESOLUTION_S),
        # Only the first fold and the final snapshot are published: the
        # final one marks where each policy's simulation ends.
        progress=progress,
        heartbeat_interval_s=1.0e9,
    )
    wall = time.perf_counter() - start
    edges = [start, *done]
    latencies = [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]
    return _fleet_iteration(wall, latencies, reports), reports


def _fleet_zoo(inputs: Inputs) -> tuple[Iteration, object]:
    from repro.capping.fleet import simulate_fleet_traced
    from repro.capping.policy import CapPolicy
    from repro.runner.engine import EngineConfig

    reports = []
    latencies = []
    start = time.perf_counter()
    for name, policy in (
        ("50% TDP policy", CapPolicy.half_tdp()),
        ("uncapped", CapPolicy.uncapped()),
    ):
        op_start = time.perf_counter()
        reports.append(
            simulate_fleet_traced(
                inputs.jobs,
                policy,
                name,
                ZOO_NODES,
                bin_s=FLEET_BIN_S,
                engine_config=EngineConfig(base_interval_s=FLEET_RESOLUTION_S),
                seed=inputs.seed,
                node_platforms=list(ZOO_PLATFORMS),
                workers=ZOO_WORKERS,
            )
        )
        latencies.append((time.perf_counter() - op_start) * 1e3)
    wall = time.perf_counter() - start
    return _fleet_iteration(wall, latencies, reports), reports


def _fleet_iteration(wall: float, latencies: list[float], reports) -> Iteration:
    sim = sum(report.schedule.total_node_seconds() for report in reports)
    return Iteration(
        wall_s=wall,
        sim_node_s=sim,
        latencies_ms=latencies,
        misses=cache_misses(),
    )


def _cap_study(inputs: Inputs) -> tuple[Iteration, object]:
    from repro.analysis.modes import high_power_mode_w
    from repro.experiments.common import run_workload

    surrogate = inputs.surrogate
    first = []
    latencies = []
    start = time.perf_counter()
    for _, workload, width, cap in inputs.points:
        point_start = time.perf_counter()
        measured = run_workload(workload, width, cap, seed=inputs.seed)
        node_hpm = high_power_mode_w(measured.telemetry[0].node_power)
        gpu_hpm = high_power_mode_w(measured.telemetry[0].gpu_power(0))
        latencies.append((time.perf_counter() - point_start) * 1e3)
        first.append((measured, node_hpm, gpu_hpm))
    misses = cache_misses()
    second = []
    for _, workload, width, cap in inputs.points:
        measured = run_workload(workload, width, cap, seed=inputs.seed)
        second.append((measured, surrogate.predict(workload, width, cap)))
    wall = time.perf_counter() - start
    sim = sum(
        measured.runtime_s * width
        for (measured, _, _), (_, _, width, _) in zip(first, inputs.points)
    )
    iteration = Iteration(wall_s=wall, sim_node_s=sim, latencies_ms=latencies, misses=misses)
    return iteration, (first, second)


# ----------------------------------------------------------------------
# Correctness (after the clock stops)
# ----------------------------------------------------------------------
def check_iteration(
    inputs: Inputs, iteration: Iteration, outputs, watch: ShardWatch
) -> None:
    """Fill ``iteration.ops`` with one verdict per operation."""
    if inputs.workload == "cap-study":
        iteration.ops, iteration.accuracy_pairs = _check_cap(inputs, outputs)
        return
    ops = []
    pooled = list(watch.results)
    for index, report in enumerate(outputs):
        op = Op(key=report.policy_name)
        try:
            op.digest = _fleet_digest(report)
            done = {record.job_id for record in report.schedule.records}
            if report.jobs_completed != len(inputs.job_ids) or done != inputs.job_ids:
                op.error = (
                    f"{report.jobs_completed} of {len(inputs.job_ids)} "
                    "submitted jobs completed"
                )
            elif inputs.workload == "fleet-zoo-sharded" and not (
                index < len(pooled) and pooled[index]
            ):
                op.error = "run_sharded fell back to serial rendering"
            elif not (report.mean_power_w > 0 and math.isfinite(report.power_std_w)):
                op.error = "non-physical system power statistics"
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            op.error = f"{type(exc).__name__}: {exc}"
        ops.append(op)
    iteration.ops = ops


def _fleet_digest(report) -> str:
    return digest(
        report.policy_name,
        report.mean_power_w,
        report.peak_power_w,
        report.power_std_w,
        report.makespan_s,
        report.jobs_completed,
        report.node_power_mean_w,
        report.node_power_std_w,
        report.node_power_peak_w,
        report.samples_streamed,
        report.chunks_streamed,
    )


def _mean_node_w(measured, width: int) -> float:
    return measured.result.total_energy_j() / (width * measured.runtime_s)


def _engine_targets(measured, node_hpm: float, gpu_hpm: float, width: int) -> dict:
    """The surrogate's targets, measured from one engine run."""
    from repro.hardware.platform import get_platform

    mean_node_w = _mean_node_w(measured, width)
    return {
        "hpm_w": node_hpm,
        "mean_node_power_w": mean_node_w,
        "runtime_s": measured.runtime_s,
        "energy_per_node_j": measured.runtime_s * mean_node_w,
        "tdp_fraction": gpu_hpm / get_platform(None).gpu.tdp_w,
    }


def _check_cap(inputs: Inputs, outputs) -> tuple[list[Op], list[tuple[float, float]]]:
    first, second = outputs
    # Slowdown is relative to the same (workload, width) uncapped point.
    uncapped = {
        _pair_key(key): measured.runtime_s
        for (key, _, _, cap), (measured, _, _) in zip(inputs.points, first)
        if cap is None
    }
    ops = []
    pairs: list[tuple[float, float]] = []
    for (key, _, width, _), (measured, node_hpm, gpu_hpm), (again, prediction) in zip(
        inputs.points, first, second
    ):
        op = Op(key=key)
        try:
            truth = _engine_targets(measured, node_hpm, gpu_hpm, width)
            truth["slowdown"] = measured.runtime_s / uncapped[_pair_key(key)]
            predicted = {name: prediction.target(name) for name in truth}
            op.digest = digest(
                *(truth[name] for name in sorted(truth)),
                *(predicted[name] for name in sorted(predicted)),
            )
            if (
                again.runtime_s != measured.runtime_s
                or again.result.total_energy_j() != measured.result.total_energy_j()
            ):
                op.error = "pass-2 result differs from pass 1"
            elif not all(math.isfinite(v) and v > 0 for v in truth.values()):
                op.error = "non-physical engine result"
            else:
                pairs.extend((predicted[name], truth[name]) for name in sorted(truth))
        except Exception as exc:  # noqa: BLE001 - any failure is a failed op
            op.error = f"{type(exc).__name__}: {exc}"
        ops.append(op)
    return ops, pairs


def _pair_key(key: str) -> str:
    """``ref@width`` part of a grid-point key."""
    return key.rsplit("@", 1)[0]


def admission_accuracy(inputs: Inputs) -> list[tuple[float, float]]:
    """Fleet admission estimate vs the engine, per distinct mix key.

    The fleets' stand-in for the engine is the scheduler's admission
    estimate (``cached_estimate_run``).  The key set is every (workload,
    width) the mix can draw, at the cap each policy applies, so it does
    not depend on the seed; the engine runs take the run's seed.
    """
    from repro.capping.fleet import DEFAULT_MIX
    from repro.capping.policy import CapPolicy
    from repro.capping.scheduler import cached_estimate_run
    from repro.experiments.common import run_workload
    from repro.workloads import resolve_widths, resolve_workload

    if inputs.workload == "fleet-vasp":
        refs, pool = sorted(DEFAULT_MIX), VASP_NODES
    else:
        refs, pool = [ref for ref, _ in ZOO_MIX], ZOO_NODES
    policies = (CapPolicy.half_tdp(), CapPolicy.uncapped())
    pairs = []
    for ref in refs:
        workload = resolve_workload(ref)
        for width in resolve_widths(ref):
            if width > pool:
                continue
            for cap in sorted({policy.cap_for(workload) for policy in policies}):
                estimate = cached_estimate_run(workload, width, cap)
                measured = run_workload(workload, width, cap, seed=inputs.seed)
                pairs.append((estimate.runtime_s, measured.runtime_s))
                pairs.append((estimate.mean_node_power_w, _mean_node_w(measured, width)))
    return pairs


def mape(pairs: list[tuple[float, float]]) -> float:
    """Mean absolute percentage error of (predicted, actual) pairs."""
    return sum(abs(p - a) / abs(a) for p, a in pairs) / len(pairs)
