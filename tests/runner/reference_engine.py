"""Scalar reference for :class:`~repro.runner.engine.PowerEngine`.

The engine resolves and renders a schedule as one columnar
``[phases, nodes, len(COMPONENT_KEYS)]`` means array.  This module is
the readable specification it must reproduce bit for bit: per-phase,
per-node, per-GPU Python loops over the hardware models' scalar methods,
a running-clock layout, a running-sum sample-count loop and a
list-per-series render.  Tests replay both and require exact equality.
"""

from __future__ import annotations

import numpy as np

from repro.perfmodel.power import demand_power_w
from repro.runner.engine import PowerEngine
from repro.runner.trace import COMPONENT_KEYS, GPU_KEYS, PhaseRecord
from repro.vasp.phases import MacroPhase


def resolve_phase(
    engine: PowerEngine, phase: MacroPhase
) -> tuple[list[dict[str, float]], float]:
    """Cap-resolve one phase on every node: (per-node means, slowdown)."""
    profile = phase.gpu_profile
    duty = profile.duty_cycle
    node_means: list[dict[str, float]] = []
    slowdown = 1.0
    skews = {
        gpu.serial: engine._rank_skew(gpu.serial)
        for node in engine.nodes
        for gpu in node.gpus
    }
    max_skew = max(skews.values()) if skews else 0.0
    for node in engine.nodes:
        gpu_means: list[float] = []
        for gpu in node.gpus:
            if duty <= 0.0:
                gpu_means.append(gpu.idle_power_w)
                continue
            demand = demand_power_w(profile, gpu.envelope)
            sample = gpu.resolve_phase(demand, profile.compute_fraction)
            # Load imbalance: rank i holds (1 + skew_i) of the nominal
            # work; the phase runs at the most-loaded rank's pace while
            # the others idle-wait, diluting their duty cycle.
            rank_duty = min(duty * (1.0 + skews[gpu.serial]) / (1.0 + max_skew), 1.0)
            gpu_means.append(
                rank_duty * sample.power_w + (1.0 - rank_duty) * gpu.idle_power_w
            )
            # Ranks synchronize: the job runs at the slowest GPU's pace.
            slowdown = max(
                slowdown,
                (duty * sample.slowdown + (1.0 - duty)) * (1.0 + max_skew),
            )
        node_sample = node.sample(
            gpu_power_w=gpu_means,
            cpu_utilization=phase.cpu_utilization,
            memory_bandwidth_utilization=phase.mem_bw_utilization,
            nic_utilization=phase.nic_utilization,
        )
        means = {
            "cpu": node_sample.cpu_w,
            "memory": node_sample.memory_w,
            "node": node_sample.node_w,
        }
        for key, value in zip(GPU_KEYS, node_sample.gpu_w):
            means[key] = value
        node_means.append(means)
    return node_means, slowdown


def layout(
    phases: list[MacroPhase], slowdowns: list[float]
) -> tuple[list[PhaseRecord], float]:
    """Phases back to back on a running wall clock: (records, runtime)."""
    records = []
    clock = 0.0
    for phase, slowdown in zip(phases, slowdowns):
        duration = phase.duration_s * slowdown
        records.append(
            PhaseRecord(
                name=phase.name,
                start_s=clock,
                end_s=clock + duration,
                nominal_duration_s=phase.duration_s,
                slowdown=slowdown,
            )
        )
        clock += duration
    return records, clock


def phase_sample_counts(durations: list[float], dt: float) -> tuple[int, list[int]]:
    """(total samples, per-phase sample counts) by a running-sum loop."""
    total = sum(durations)
    n_samples = max(int(round(total / dt)), 1)
    counts = []
    acc = 0
    t_acc = 0.0
    for duration in durations:
        t_acc += duration
        upto = min(int(round(t_acc / dt)), n_samples)
        counts.append(max(upto - acc, 0))
        acc = upto
    if acc < n_samples:
        # Rounding drift: park the remainder on the final phase so the
        # per-phase counts always sum to n_samples.
        counts[-1] += n_samples - acc
    return n_samples, counts


def run(
    engine: PowerEngine, phases: list[MacroPhase], seed: int = 0
) -> tuple[list[PhaseRecord], float, list[np.ndarray]]:
    """Resolve, lay out and render; (records, runtime, per-node data).

    Each node's data is its ``(n_components, n_samples)`` float64 matrix;
    series draw noise in (node, component, time) order, as the engine's.
    """
    resolved = [resolve_phase(engine, phase) for phase in phases]
    records, runtime_s = layout(phases, [slowdown for _means, slowdown in resolved])
    _n_samples, counts = phase_sample_counts(
        [r.duration_s for r in records], engine.config.base_interval_s
    )
    rng = np.random.default_rng(seed)
    data = []
    for node_index in range(len(engine.nodes)):
        rows = []
        for key in COMPONENT_KEYS:
            levels = [node_means[node_index][key] for node_means, _s in resolved]
            rows.append(engine._add_noise(np.repeat(levels, counts), rng))
        data.append(np.array(rows))
    return records, runtime_s, data
