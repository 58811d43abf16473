#!/usr/bin/env python3
"""Benchmark entry point for the repro fleet / cap-study workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-vasp --seed 0 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Every child process runs with the ``REPRO_*`` environment cleared, the
run ledger and surrogate store pointed into a temporary directory under
the checkout (also the children's working directory), and the program
imported from ``src/``.  Exits non-zero without a result when the
program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import cases

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Whole-run budget: every child is killed past it.
RUN_BUDGET_S = 175.0
#: State directories the program creates in its working directory.
STATE_DIRS = (".repro_cache", ".repro_runs")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def isolated_env(tmp: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    # Relocating variables only; the ones that switch features on when
    # set (REPRO_CACHE_DIR, REPRO_FLEET_CHECKPOINT, REPRO_FLEET_HEARTBEAT,
    # REPRO_TRACE, ...) stay unset so every run takes the default path.
    # TMPDIR keeps temporary files (multiprocessing's among them) in the
    # checkout too.
    env["REPRO_RUNS_DIR"] = str(tmp / "runs")
    env["REPRO_SURROGATE_DIR"] = str(tmp / "surrogate")
    env["TMPDIR"] = str(tmp)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run budget exhausted")
    return left


def stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.kill()
    process.wait()


def time_setup(args, env, tmp: Path, store: Path, deadline: float) -> tuple[float, float]:
    """Seconds from launching a fresh interpreter until it is ready, and
    the host-speed kernel time the probe measured right after."""
    command = [
        sys.executable, str(HERE / "setup_probe.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--store", str(store),
    ]
    start = time.perf_counter()
    process = subprocess.Popen(command, env=env, cwd=tmp, stdout=subprocess.PIPE, text=True)
    try:
        ready, _, _ = select.select([process.stdout], [], [], remaining(deadline))
        line = process.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"set-up probe failed ({line.strip() or 'no output'})")
        out, _ = process.communicate(timeout=remaining(deadline))
        if process.returncode != 0:
            raise BenchError(f"set-up probe exited with {process.returncode}")
    except subprocess.TimeoutExpired:
        raise BenchError("set-up probe exceeded the run budget") from None
    finally:
        stop(process)
    return elapsed, float(out.strip())


def run_measure(args, env, tmp: Path, store: Path, deadline: float) -> dict:
    command = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--store", str(store),
    ]
    if args.pin:
        command.append("--pin")
    process = subprocess.Popen(command, env=env, cwd=tmp, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = process.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("measurement exceeded the run budget") from None
    finally:
        stop(process)
    lines = out.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchError(f"measurement process exited with {process.returncode}")
    return json.loads(lines[-1])


def state_dirs(places: list[Path]) -> set[Path]:
    return {place / name for place in places for name in STATE_DIRS if (place / name).exists()}


def bench(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {ROOT / 'src' / 'repro'}")
    places = [ROOT, Path.cwd()]
    before = state_dirs(places)
    tmp_root = ROOT / ".perfbench_tmp"
    tmp = tmp_root / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        env = isolated_env(tmp)
        store = tmp / "trace-store"
        setups = []
        if not args.trace and not args.pin:
            for index in range(SETUP_REPEATS):
                store = tmp / f"setup-{index}" / "surrogate"
                setups.append(time_setup(args, env, tmp, store, deadline))
        result = run_measure(args, env, tmp, store, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    errors = list(result["errors"])
    leaked = state_dirs(places) - before
    if leaked:
        errors.append(f"program state escaped isolation: {sorted(map(str, leaked))}")
    metrics = result["metrics"]
    print(f"perfbench: {args.workload} seed {args.seed}: {result['note']}", file=sys.stderr)
    if setups:
        print(f"perfbench: set-up (raw s, kernel s): {setups}", file=sys.stderr)
        scale = cases.REFERENCE_KERNEL_S / statistics.median(k for _, k in setups)
        setup_s = statistics.median(raw for raw, _ in setups) * scale
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    for message in errors:
        print(f"perfbench: {message}", file=sys.stderr)
    return {
        "correct": bool(result["ok"]) and not leaked,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--pin",
        action="store_true",
        help="write the default seed's digests to golden.json (no set-up timing)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.pin and args.seed != 0:
        parser.error("--pin pins the default seed 0 only")
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
