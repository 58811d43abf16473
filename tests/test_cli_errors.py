"""Bad CLI invocations fail fast: exit 2, one ``repro: error:`` line.

Each case runs ``python -m repro`` in a subprocess, so an uncaught
exception would show up as a traceback on stderr rather than being
swallowed by the test harness.  Before validation, several of these
either crashed with a traceback (``fleet --nodes 0``, ``fleet --jobs
-3``) or silently replaced the value with a default and exited 0
(``cap-sweep --nodes 0``, ``predict --nodes 0``, ``fleet --resolution
0``, ``monitor --resolution 0``).  Errors raised after parsing (an
unsupported cap, an unknown workload) go through the one error boundary
in ``repro.cli.main``; other exception types still propagate.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli

SRC = Path(__file__).resolve().parents[1] / "src"

#: (argv, text the single error line must contain)
CASES = [
    (["run", "PdO2", "--nodes", "0"], "--nodes"),
    (["run", "PdO2", "--nodes", "abc"], "--nodes"),
    (["cap-sweep", "PdO2", "--nodes", "0"], "--nodes"),
    (["predict", "PdO2", "--nodes", "0"], "--nodes"),
    (["fleet", "--nodes", "0"], "--nodes"),
    (["fleet", "--jobs", "-3"], "--jobs"),
    (["fleet", "--resolution", "0"], "--resolution"),
    (["fleet", "--resolution", "nan"], "--resolution"),
    (["monitor", "--resolution", "0"], "--resolution"),
    (["monitor", "--jobs", "0"], "--jobs"),
    (["monitor", "--nodes", "-1"], "--nodes"),
    (["predict", "PdO2", "--cap", "5000"], "power limit 5000 W"),
    (["run", "PdO2", "--cap", "-5"], "power limit -5 W"),
    (["schedule", "--watts-per-node", "0"], "--watts-per-node"),
    (["fleet", "--watts-per-node", "0"], "--watts-per-node"),
    (["fleet", "--retain-traces"], "--retain-traces"),
    (["fleet", "--workers", "0"], "--workers"),
    (["cap-sweep", "PdO2", "--workers", "-2"], "--workers"),
    (["predict", "PdO2", "--workers", "0"], "--workers"),
    (["run", "NotABenchmark"], "unknown workload"),
    (["fleet", "--scenario", "nope"], "unknown scenario"),
    (["runs", "show", "nope"], "run ledger is empty"),
]


@pytest.mark.parametrize(
    ("argv", "flag"), CASES, ids=[" ".join(argv) for argv, _ in CASES]
)
def test_bad_invocation_exits_2_with_one_error_line(argv, flag, tmp_path):
    env = {
        key: value for key, value in os.environ.items() if not key.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_RUNS_DIR"] = str(tmp_path / "runs")  # an empty, private ledger
    out = subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=env,
    )
    assert out.returncode == 2, out.stderr
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1, out.stderr
    assert lines[0].startswith("repro: error: ")
    assert flag in lines[0]
    assert out.stdout == ""


def test_unexpected_exception_types_still_raise(monkeypatch):
    def broken(args):
        raise RuntimeError("a bug, not bad input")

    monkeypatch.setattr(cli, "_cmd_list", broken)
    with pytest.raises(RuntimeError, match="a bug"):
        cli.main(["list"])
