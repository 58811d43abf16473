"""Measurement process: set up one workload, time its body, check it.

Started by ``run.py`` in an isolated environment (``REPRO_*`` cleared,
state directories under a temporary directory, which is also the working
directory).  Prints one JSON object as its last stdout line:

* ``--trace 0``: end-to-end metrics of untraced iterations (``setup_s``
  is measured by ``run.py`` in fresh interpreters);
* ``--trace 1``: per-layer metrics of traced iterations, interleaved
  with untraced ones for ``trace.overhead_ratio``.

Each iteration starts from cold caches and is checked after its clock
stops; ``--pin`` writes the default seed's digests to ``golden.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import cases
import layers

#: Timed iterations at least, however short ``--seconds`` is.
MIN_ITERATIONS = 2
#: Failure reasons echoed to stderr.
MAX_REPORTED_ERRORS = 12


class Run:
    """Accumulates iterations and failure reasons of one run."""

    def __init__(self, golden: dict[str, str] | None) -> None:
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: cases.Iteration | None = None

    def error(self, message: str) -> None:
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(message)

    def check(self, iteration: cases.Iteration) -> None:
        """Count operations; fail those that deviate from the reference."""
        reference = self.reference
        if reference is None:
            self.reference = reference = iteration
        if iteration.misses != reference.misses:
            self.error(f"cache misses {iteration.misses} != first iteration {reference.misses}")
        for index, op in enumerate(iteration.ops):
            self.attempted += 1
            if op.error is None and iteration.misses != reference.misses:
                op.error = "cache state differs from the first iteration"
            if op.error is None and op.digest != reference.ops[index].digest:
                op.error = "result differs from the first iteration"
            if op.error is None and self.golden is not None:
                if op.digest != self.golden.get(op.key):
                    op.error = f"digest {op.digest} != pinned {self.golden.get(op.key)}"
            if op.error is not None:
                self.failed += 1
                self.error(f"{op.key}: {op.error}")


def timed_iteration(inputs, watch, instrumentation=None):
    """Cold caches, one body, its checks; traced when instrumented."""
    cases.reset_caches()
    watch.results.clear()
    tracer = None
    if instrumentation is not None:
        tracer = instrumentation.tracer = layers.Tracer()
        instrumentation.install()
        body = tracer.open(layers.BODY)
    peak_tracked = _reset_peak_rss()
    try:
        iteration, outputs = cases.run_iteration(inputs)
    finally:
        if instrumentation is not None:
            tracer.close(body)
            instrumentation.uninstall()
    iteration.peak_rss_kb = _peak_rss_kb() if peak_tracked else None
    cases.check_iteration(inputs, iteration, outputs, watch)
    return iteration, tracer


def independent_count_errors(inputs: cases.Inputs, metrics: dict) -> list[str]:
    """Wrapped counts against counts the benchmark takes by itself."""
    from repro.capping.scheduler import estimate_cache
    from repro.experiments.common import run_cache

    run_lookups = run_cache().stats().lookups
    estimate_lookups = estimate_cache().stats().lookups
    expect = [
        ("experiments.run_workload_calls", "==", run_lookups, "run-cache lookups"),
        ("capping.scheduler.estimate_calls", "==", estimate_lookups, "estimate-cache lookups"),
        ("runner.cache.fingerprint_calls", ">=", estimate_lookups, "estimate-cache lookups"),
    ]
    if inputs.workload == "fleet-vasp":
        expect.append(
            (
                "runner.engine.resolve_calls",
                "==",
                metrics["capping.shard.render_partial_calls"],
                "render_job_partial calls",
            )
        )
    if inputs.workload == "cap-study":
        points = len(inputs.points)
        expect += [
            ("experiments.run_workload_calls", "==", 2 * points, "two passes over the grid"),
            ("analysis.hpm_calls", "==", 2 * points, "node + GPU HPM per point"),
            ("prediction.predict_calls", "==", points, "grid points"),
            ("runner.engine.resolve_calls", "==", points, "cold grid points"),
        ]
    errors = []
    for name, relation, value, what in expect:
        got = metrics[name]
        ok = got == value if relation == "==" else got >= value
        if not ok:
            errors.append(f"{name} = {got}, expected {relation} {value} ({what})")
    return errors


def _reset_peak_rss() -> bool:
    """Restart this process's peak-RSS count (Linux); False if unsupported."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        return False
    return True


def _peak_rss_kb() -> int:
    """Peak RSS since the last reset (``VmHWM``), in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def peak_rss_mb(untraced: list[cases.Iteration]) -> float:
    """Peak RSS during the timed bodies plus the largest reaped worker, MB.

    Where the peak count cannot be reset, the process's lifetime peak
    (set-up and host-speed kernel included) stands in.
    """
    bodies = [it.peak_rss_kb for it in untraced if it.peak_rss_kb is not None]
    own = max(bodies) if bodies else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def measure(args) -> dict:
    import_start = time.perf_counter()
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - import_start
    from repro.prediction import load_or_train, surrogate_stats
    from repro.runner.sweep import reset_sweep_stats, sweep_stats

    watch = cases.ShardWatch()
    watch.install()
    instrumentation = layers.Instrumentation() if args.trace else None
    problems: list[str] = []

    # ---- set-up (traced in the traced run) ---------------------------
    reset_sweep_stats()
    if instrumentation is not None:
        instrumentation.install()
    try:
        inputs = cases.build_inputs(args.workload, args.seed, store=args.store)
        if args.workload == "cap-study" and args.trace:
            # The first call trained into the empty store; read it back.
            inputs.surrogate = load_or_train(directory=args.store)
    finally:
        if instrumentation is not None:
            instrumentation.uninstall()
    prep_tracer = instrumentation.tracer if instrumentation is not None else None
    dedupe_ratio = sweep_stats().dedupe_ratio
    if args.workload == "cap-study" and not (args.trace or args.pin) and surrogate_stats().trainings:
        problems.append("the surrogate store written by set-up did not load")

    golden = None
    if args.seed == cases.DEFAULT_SEED and not args.pin:
        golden = cases.load_golden().get(args.workload)
        if golden is None:
            problems.append(f"no pinned digests for {args.workload}")

    run = Run(golden)

    # ---- timed iterations --------------------------------------------
    # No warm-up: every ``repro`` process pays its first-call costs, and
    # the median is robust to the one iteration that carries them.
    untraced: list[cases.Iteration] = []
    traced: list[dict] = []
    kernels = [] if args.trace else [cases.kernel_s()]
    start = time.perf_counter()
    while len(untraced) < MIN_ITERATIONS or _time_left(start, args.seconds, len(untraced)):
        iteration, _ = timed_iteration(inputs, watch)
        run.check(iteration)
        untraced.append(iteration)
        if not args.trace:
            kernels.append(cases.kernel_s())
        if args.pin and len(untraced) == 1:
            pin(args.workload, iteration)
        if instrumentation is None:
            continue
        iteration, tracer = timed_iteration(inputs, watch, instrumentation)
        run.check(iteration)
        metrics = layers.body_metrics(tracer)
        metrics["capping.scheduler.estimate_hit_ratio"] = _hit_rate("estimate")
        metrics["runner.cache.run_hit_ratio"] = _hit_rate("run")
        metrics["_wall_s"] = iteration.wall_s
        problems += layers.coverage_errors(args.workload, "body", tracer)
        problems += independent_count_errors(inputs, metrics)
        traced.append(metrics)
    rss = peak_rss_mb(untraced)

    if instrumentation is not None:
        problems += layers.coverage_errors(args.workload, "prep", prep_tracer)
        result = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
        untraced_wall = statistics.median(it.wall_s for it in untraced)
        result["trace.overhead_ratio"] = result.pop("_wall_s") / untraced_wall - 1.0
        result.update(layers.prep_metrics(prep_tracer))
        result["import.repro_cli_s"] = import_s
        result["runner.sweep.dedupe_ratio"] = dedupe_ratio
        metrics = {
            name: {"value": float(result[name]), "unit": unit}
            for name, unit, _ in layers.PER_LAYER
        }
    else:
        scale = cases.REFERENCE_KERNEL_S / statistics.median(kernels)
        metrics = end_to_end(inputs, untraced, rss, scale)
    note = (
        f"{len(untraced)} untraced iterations, raw body walls "
        f"{[round(it.wall_s, 3) for it in untraced]} s, kernel "
        f"{[round(k, 4) for k in kernels]} s"
    )
    watch.uninstall()
    for message in problems:
        run.error(message)
    return {
        "note": note,
        "ok": not problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "metrics": metrics,
    }


def end_to_end(
    inputs: cases.Inputs, untraced: list[cases.Iteration], rss: float, scale: float
) -> dict:
    """End-to-end metrics (except ``setup_s``) from the untraced iterations.

    ``scale`` converts host seconds to reference-speed seconds.
    """
    if inputs.workload == "cap-study":
        pairs = untraced[-1].accuracy_pairs
    else:
        pairs = cases.admission_accuracy(inputs)
    # Percentiles per iteration (156 points each on cap-study, so >= 15
    # beyond p90), then the median over iterations.
    per_iteration = [
        _percentiles([ms * scale for ms in it.latencies_ms], (50, 90))
        for it in untraced
    ]
    values = {
        "wall_s": (statistics.median(it.wall_s for it in untraced) * scale, "s"),
        "sim_node_s_per_s": (
            statistics.median(it.sim_node_s / it.wall_s for it in untraced) / scale,
            "node-s/s",
        ),
        "peak_rss_mb": (rss, "MB"),
        "point_p50_ms": (statistics.median(p50 for p50, _ in per_iteration), "ms"),
        "point_p90_ms": (statistics.median(p90 for _, p90 in per_iteration), "ms"),
        "surrogate_mape": (cases.mape(pairs), "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def _time_left(start: float, seconds: float, rounds: int) -> bool:
    """Start another round only if it ends closer to the budget than not.

    A round is one iteration (two in the traced run); stopping when half
    a round would overrun keeps every run near ``seconds`` long.
    """
    elapsed = time.perf_counter() - start
    per_round = elapsed / rounds
    return elapsed + per_round / 2 < seconds


def _hit_rate(cache: str) -> float:
    from repro.capping.scheduler import estimate_cache
    from repro.experiments.common import run_cache

    return (estimate_cache() if cache == "estimate" else run_cache()).stats().hit_rate


def _percentiles(values: list[float], points: tuple[int, ...]) -> list[float]:
    """Linear-interpolation percentiles (numpy's default method)."""
    ordered = sorted(values)
    out = []
    for point in points:
        rank = (len(ordered) - 1) * point / 100.0
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        out.append(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))
    return out


def pin(workload: str, iteration: cases.Iteration) -> None:
    golden = cases.load_golden()
    golden[workload] = {op.key: op.digest for op in iteration.ops}
    cases.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--store", required=True, help="surrogate store directory")
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(measure(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
