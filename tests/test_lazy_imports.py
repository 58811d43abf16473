"""Commands that render nothing must not import ``scipy.signal``.

``scipy.signal`` costs about a second to import and the engine's AR(1)
noise filter is its only user, so the engine imports it at first render,
and render pools import it before they fork.  Each command runs in a
fresh interpreter; the child reports whether the module was loaded when
the command returned.
"""

import os
import subprocess
import sys

import pytest

from repro.obs.ledger import RUNS_DIR_ENV

_CHILD_SCRIPT = """
import sys
from repro.cli import main

try:
    main(sys.argv[1:])
except SystemExit:
    pass
print("scipy.signal" in sys.modules)
"""

_RENDER_SCRIPT = """
import sys
from repro.hardware.node import GpuNode
from repro.perfmodel.kernels import KernelCatalogue
from repro.runner.engine import PowerEngine
from repro.vasp.phases import MacroPhase

phase = MacroPhase(name="x", duration_s=1.0, gpu_profile=KernelCatalogue.DGEMM_TEST)
print("scipy.signal" in sys.modules, end=" ")
PowerEngine([GpuNode("nid005000")]).run([phase])
print("scipy.signal" in sys.modules)
"""


def run_child(script: str, *args: str, runs_dir: str) -> str:
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env[RUNS_DIR_ENV] = runs_dir
    result = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize(
    "command",
    [
        ("--help",),
        ("runs", "list"),
        ("platforms",),
        ("workloads",),
        ("sentinel", "report"),
        ("top", "--once"),
    ],
    ids=lambda command: " ".join(command),
)
def test_non_rendering_command_skips_scipy_signal(command, tmp_path):
    assert run_child(_CHILD_SCRIPT, *command, runs_dir=str(tmp_path)) == "False"


def test_first_render_imports_scipy_signal(tmp_path):
    """Control: the probe does see the import once the engine renders."""
    assert run_child(_RENDER_SCRIPT, runs_dir=str(tmp_path)) == "False True"


def test_sharded_fleet_coordinator_imports_before_forking(tmp_path):
    """Forked render workers inherit ``scipy.signal`` from the coordinator.

    The coordinator of a sharded fleet never renders itself; without the
    import before the pool forks, every worker would pay it again.
    """
    args = ("fleet", "--jobs", "4", "--nodes", "6", "--seed", "3")
    args += ("--resolution", "1.0", "--workers", "2")
    assert run_child(_CHILD_SCRIPT, *args, runs_dir=str(tmp_path)) == "True"
