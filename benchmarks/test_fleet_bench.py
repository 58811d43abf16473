"""Fleet-scale traced simulation: throughput bench plus the memory gate.

The streaming fleet path exists so a 1000-node / 200-job simulation runs
in bounded memory: node traces are rendered in fixed-size chunks and
folded into the system-power accumulator without ever being retained.
``test_fleet_traced_stream`` times that path; ``test_fleet_memory_gate``
measures its tracemalloc peak against the dense reference
(``retain_traces=True``) and fails unless streaming uses at least
``MEMORY_REDUCTION_FLOOR`` times less peak memory while producing
bit-identical statistics.  ``scripts/bench_compare.py`` reuses
:func:`measure_fleet_memory` to record the peaks in the baseline.
"""

import tracemalloc

from repro.capping.fleet import FleetTraceReport, job_stream, simulate_fleet_traced
from repro.capping.policy import CapPolicy
from repro.runner.engine import EngineConfig, import_render_modules

#: The ISSUE-scale fleet: 200 jobs streamed across a 1000-node pool.
FLEET_NODES = 1000
FLEET_JOBS = 200
#: Minimum dense/streaming peak-memory ratio the gate accepts.
MEMORY_REDUCTION_FLOOR = 3.0
#: 1 s rendering bounds bench wall time; the memory contract is
#: resolution-independent (streaming peak stays O(chunk) at any rate).
ENGINE = EngineConfig(base_interval_s=1.0)


def _fleet_jobs():
    return job_stream(n_jobs=FLEET_JOBS, mean_interarrival_s=60.0, seed=11)


def _run(jobs, retain_traces: bool = False) -> FleetTraceReport:
    return simulate_fleet_traced(
        jobs,
        CapPolicy.half_tdp(),
        "50% TDP policy",
        n_nodes=FLEET_NODES,
        engine_config=ENGINE,
        seed=11,
        retain_traces=retain_traces,
    )


def measure_fleet_memory() -> tuple[FleetTraceReport, FleetTraceReport, int, int]:
    """(streaming report, dense report, streaming peak, dense peak).

    Each path runs under its own tracemalloc session so the peaks are
    directly comparable allocated-bytes high-water marks.
    """
    jobs = _fleet_jobs()
    # The render path imports ``scipy.signal`` on first use; import it
    # first so neither peak counts a one-time module import, whichever
    # process or bench order runs this.
    import_render_modules()
    tracemalloc.start()
    stream = _run(jobs)
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    tracemalloc.start()
    dense = _run(jobs, retain_traces=True)
    _, dense_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return stream, dense, stream_peak, dense_peak


def test_fleet_traced_stream(benchmark):
    """Time the streaming fleet simulation at ISSUE scale."""
    jobs = _fleet_jobs()
    report = benchmark.pedantic(
        lambda: _run(jobs), rounds=3, iterations=1, warmup_rounds=0
    )
    assert report.jobs_completed == FLEET_JOBS
    assert report.samples_streamed > 100_000
    assert report.system.peak_power_w > report.system.mean_power_w
    print(
        f"\n  {report.jobs_completed} jobs on {FLEET_NODES} nodes: "
        f"{report.samples_streamed:,} samples in {report.chunks_streamed} "
        f"chunks ({report.bytes_streamed / 1e6:.1f} MB streamed); "
        f"system mean {report.mean_power_w / 1e3:.0f} kW, "
        f"peak {report.peak_power_w / 1e3:.0f} kW"
    )


def test_fleet_memory_gate(benchmark):
    """Streaming must beat dense peak memory 3x with identical stats."""
    stream, dense, stream_peak, dense_peak = benchmark.pedantic(
        measure_fleet_memory, rounds=1, iterations=1, warmup_rounds=0
    )
    ratio = dense_peak / stream_peak
    print(
        f"\n  peak allocated: streaming {stream_peak / 1e6:.2f} MB, "
        f"dense {dense_peak / 1e6:.2f} MB ({ratio:.1f}x reduction)"
    )
    # Load-invariant contracts: same numbers, bounded memory.
    assert stream.system == dense.system
    assert stream.node_power_mean_w == dense.node_power_mean_w
    assert stream.samples_streamed == dense.samples_streamed
    assert ratio >= MEMORY_REDUCTION_FLOOR
