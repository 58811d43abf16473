"""Set-up probe: a fresh interpreter, from start until a workload is ready.

``run.py`` times this process from launch until it prints ``ready``:
``import repro.cli`` (registries), the seeded job stream or grid, and for
cap-study the surrogate trained into the empty store ``--store``.  It
then prints the host-speed kernel time measured right after.
"""

from __future__ import annotations

import argparse
import sys

import cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True, help="surrogate store directory")
    args = parser.parse_args(argv)
    cases.build_inputs(args.workload, args.seed, store=args.store)
    print("ready", flush=True)
    print(cases.kernel_s(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
