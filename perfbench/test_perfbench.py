"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Not part of the repository's tier-1 suite (``tests/``): the traced-run
tests execute each workload once and take about a minute in total.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402


def test_self_time_subtracts_direct_children():
    tracer = layers.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    time.sleep(0.02)
    tracer.close(inner)
    time.sleep(0.01)
    tracer.close(outer)
    own = tracer.self_times()
    total = tracer.ends[outer] - tracer.starts[outer]
    assert own["inner"] == pytest.approx(tracer.ends[inner] - tracer.starts[inner])
    assert own["outer"] + own["inner"] == pytest.approx(total)
    assert 0.005 < own["outer"] < own["inner"]


def test_iterate_times_each_next_as_a_span():
    tracer = layers.Tracer()
    body = tracer.open("body")
    assert list(tracer.iterate("step", iter([1, 2, 3]))) == [1, 2, 3]
    tracer.close(body)
    # Three items plus the StopIteration probe, all children of body.
    assert tracer.span_counts()["step"] == 4
    assert {tracer.parents[i] for i, n in enumerate(tracer.names) if n == "step"} == {body}


def test_wrappers_rebind_every_alias_and_undo():
    import repro.cli  # noqa: F401
    from repro.capping import fleet, scheduler, shard
    from repro.runner import cache
    from repro.vasp import parallel

    originals = {
        module: (module.fingerprint, getattr(module, "layout_for", None))
        for module in (fleet, scheduler, shard)
    }
    instrumentation = layers.Instrumentation()
    instrumentation.install()
    try:
        for module in (fleet, scheduler, shard):
            assert module.fingerprint is cache.fingerprint
            assert module.fingerprint is not originals[module][0]
            assert module.layout_for is parallel.layout_for
        before = instrumentation.tracer.calls["repro.runner.cache:fingerprint"]
        shard.fingerprint("x")
        fleet.fingerprint("y")
        assert instrumentation.tracer.calls["repro.runner.cache:fingerprint"] == before + 2
        assert instrumentation.tracer.span_counts()[layers.FINGERPRINT] == 2
    finally:
        instrumentation.uninstall()
    for module, (fingerprint, layout_for) in originals.items():
        assert module.fingerprint is fingerprint
        assert module.layout_for is layout_for


def test_every_target_exists():
    import repro.cli  # noqa: F401

    instrumentation = layers.Instrumentation()
    instrumentation.install()
    try:
        phase_builders = [w for w in instrumentation.wrapped if w.endswith(".phases")]
        assert len(phase_builders) >= 6
        assert len(instrumentation.wrapped) == len(layers.TARGETS) - 1 + len(phase_builders)
    finally:
        instrumentation.uninstall()


@pytest.mark.parametrize("workload", ["fleet-vasp", "fleet-zoo-sharded", "cap-study"])
def test_traced_run_passes_its_coverage_checks(workload):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stderr
    assert result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _, _ in layers.PER_LAYER}
