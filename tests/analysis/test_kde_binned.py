"""The binned FFT KDE against the exact Gaussian sum it replaces.

``KdeCurve.of`` evaluates by ``GaussianKDE.evaluate_binned``; the exact
``GaussianKDE.evaluate`` is the oracle.  On the perfbench cap-study grid
and the surrogate corpus grid the high power mode and its FWHM must be
``==`` the oracle's: these grids pin ``BIN_REFINEMENT`` (at 1, a GPU-power
HPM on the cap grid moves by 1.8 W).  Elsewhere the density error is
bounded relative to the peak.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.analysis.kde import GaussianKDE, KdeCurve
from repro.analysis.modes import fwhm_of, high_power_mode_of, modes_of
from repro.experiments.common import run_workload
from repro.prediction.corpus import CorpusConfig

PERFBENCH_CASES = Path(__file__).resolve().parents[2] / "perfbench" / "cases.py"


def _perfbench_cap_points():
    spec = importlib.util.spec_from_file_location("perfbench_cases", PERFBENCH_CASES)
    cases = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules.
    sys.modules.setdefault(spec.name, cases)
    spec.loader.exec_module(cases)
    return cases.cap_points()


def _curves(values):
    """(exact, binned) curves on the grid ``KdeCurve.of`` uses."""
    kde = GaussianKDE(values)
    grid = kde.grid(n_points=1024)
    return KdeCurve(grid, kde.evaluate(grid)), KdeCurve(grid, kde.evaluate_binned(grid))


def _hpm_and_fwhm(curve):
    mode = high_power_mode_of(curve)
    return mode.power_w, fwhm_of(curve, mode)


def _mismatches(labelled_values):
    wrong = []
    for label, values in labelled_values:
        exact, binned = _curves(values)
        if _hpm_and_fwhm(binned) != _hpm_and_fwhm(exact):
            wrong.append((label, _hpm_and_fwhm(exact), _hpm_and_fwhm(binned)))
    return wrong


class TestPinnedGrids:
    def test_perfbench_cap_grid(self):
        def timelines():
            for key, workload, width, cap in _perfbench_cap_points():
                telemetry = run_workload(workload, width, cap, seed=0).telemetry[0]
                yield f"{key} node", telemetry.node_power
                yield f"{key} gpu0", telemetry.gpu_power(0)

        assert _mismatches(timelines()) == []

    def test_surrogate_corpus_grid(self):
        def timelines():
            for spec in CorpusConfig().specs():
                telemetry = run_workload(
                    spec.workload,
                    n_nodes=spec.n_nodes,
                    gpu_cap_w=spec.cap_w,
                    seed=spec.seed,
                    platform=spec.platform_id,
                ).telemetry[0]
                yield f"{spec} node", telemetry.node_power
                yield f"{spec} gpu0", telemetry.gpu_power(0)

        assert _mismatches(timelines()) == []


@st.composite
def multimodal_samples(draw):
    """One to four Gaussian clusters of power readings."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    clusters = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=50.0, max_value=2500.0),
                st.floats(min_value=0.5, max_value=100.0),
                st.integers(min_value=10, max_value=400),
            ),
            min_size=1,
            max_size=4,
        )
    )
    return np.concatenate([rng.normal(mu, sigma, n) for mu, sigma, n in clusters])


class TestBoundedError:
    @given(multimodal_samples())
    @settings(max_examples=40, deadline=None)
    def test_density_and_hpm_near_the_oracle(self, data):
        exact, binned = _curves(data)
        kde = GaussianKDE(data)
        step = exact.grid[1] - exact.grid[0]
        # The accuracy guarantee holds where the grid resolves the kernel
        # (spacing <= bandwidth/3, up to the 65536-point grid cap) ...
        assume(step <= kde.bandwidth / 3.0 + 1e-12)
        # ... and where no peak sits on the prominence threshold, whose
        # verdict any perturbation of the density can flip.
        assume(all(abs(m.prominence - 0.05) > 1e-3 for m in modes_of(exact, 0.0)))
        peak = exact.density.max()
        assert np.max(np.abs(binned.density - exact.density)) <= 1e-3 * peak
        hpm_exact = high_power_mode_of(exact).power_w
        hpm_binned = high_power_mode_of(binned).power_w
        assert abs(hpm_binned - hpm_exact) <= step * (1 + 1e-9)


class TestRejectedGrids:
    @pytest.fixture
    def kde(self):
        return GaussianKDE(np.array([100.0, 110.0, 130.0]), bandwidth=5.0)

    def test_uneven(self, kde):
        grid = np.linspace(80.0, 150.0, 64)
        grid[10] += 0.3 * (grid[1] - grid[0])
        with pytest.raises(ValueError, match="evenly spaced"):
            kde.evaluate_binned(grid)

    def test_descending(self, kde):
        with pytest.raises(ValueError, match="ascending"):
            kde.evaluate_binned(np.linspace(150.0, 80.0, 64))

    @pytest.mark.parametrize("lo, hi", [(105.0, 150.0), (80.0, 120.0)])
    def test_misses_data(self, kde, lo, hi):
        with pytest.raises(ValueError, match="does not contain every data point"):
            kde.evaluate_binned(np.linspace(lo, hi, 64))

    def test_single_point(self, kde):
        with pytest.raises(ValueError, match="evenly spaced"):
            kde.evaluate_binned(np.array([110.0]))

    def test_grid_ending_on_the_data(self, kde):
        grid = np.linspace(100.0, 130.0, 31)
        exact = kde.evaluate(grid)
        np.testing.assert_allclose(kde.evaluate_binned(grid), exact, atol=1e-3 * exact.max())
