"""One KDE evaluation per timeline, bit-identical to the plain expression.

``GaussianKDE.evaluate`` works in place; the allocating expression below
is its reference and must agree exactly.  The analysis entry points share
one :class:`KdeCurve` per timeline, which the counting tests pin down.
"""

import numpy as np
import pytest

from repro.analysis import stats
from repro.analysis.kde import GaussianKDE, KdeCurve
from repro.analysis.modes import (
    find_modes,
    fwhm,
    fwhm_of,
    high_power_mode,
    high_power_mode_of,
    modes_of,
)
from repro.experiments import fig02_sampling, fig06_system_size
from repro.prediction.clustering import profile_features
from repro.prediction.corpus import CorpusSpec
from repro.vasp.benchmarks import silicon_workload

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def reference_evaluate(kde: GaussianKDE, grid: np.ndarray) -> np.ndarray:
    """The allocating form of ``GaussianKDE.evaluate``."""
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    out = np.zeros_like(grid)
    h = kde.bandwidth
    n = kde.data.size
    chunk = max(1, int(4e6 // max(grid.size, 1)))
    for start in range(0, n, chunk):
        block = kde.data[start : start + chunk]
        z = (grid[:, None] - block[None, :]) / h
        out += np.exp(-0.5 * z * z).sum(axis=1)
    return out / (n * h * _SQRT_2PI)


def _bimodal(n=700):
    rng = np.random.default_rng(0)
    return np.concatenate([rng.normal(300, 10, n - n // 3), rng.normal(150, 8, n // 3)])


class TestEvaluateMatchesReference:
    def test_single_point(self):
        kde = GaussianKDE([250.0], bandwidth=5.0)
        grid = kde.grid()
        assert np.array_equal(kde.evaluate(grid), reference_evaluate(kde, grid))

    def test_bimodal(self):
        kde = GaussianKDE(_bimodal())
        grid = kde.grid(n_points=1024)
        assert np.array_equal(kde.evaluate(grid), reference_evaluate(kde, grid))

    def test_constant_data(self):
        kde = GaussianKDE(np.full(64, 412.5))
        grid = kde.grid(n_points=1024)
        assert np.array_equal(kde.evaluate(grid), reference_evaluate(kde, grid))

    def test_largest_grid_spans_several_chunks(self):
        # 4e6 // 65,536 = 61 data points fit one chunk at the grid cap.
        kde = GaussianKDE(_bimodal())
        grid = np.linspace(100.0, 350.0, 65536)
        assert kde.data.size > 4 * int(4e6 // grid.size)
        assert np.array_equal(kde.evaluate(grid), reference_evaluate(kde, grid))


class TestCurveHelpersMatchWrappers:
    def test_modes_hpm_and_fwhm(self):
        data = _bimodal()
        curve = KdeCurve.of(data)
        assert modes_of(curve) == find_modes(data)
        mode = high_power_mode_of(curve)
        assert mode == high_power_mode(data)
        assert fwhm_of(curve, mode) == fwhm(data, mode=mode) == fwhm(data)

    def test_curve_is_frozen(self):
        curve = KdeCurve.of(_bimodal())
        with pytest.raises(AttributeError):
            curve.grid = np.zeros(3)


@pytest.fixture
def evaluations(monkeypatch):
    """One entry per ``GaussianKDE.evaluate_binned`` call (what ``KdeCurve.of`` runs)."""
    calls: list[GaussianKDE] = []
    evaluate = GaussianKDE.evaluate_binned

    def counted(self, grid):
        calls.append(self)
        return evaluate(self, grid)

    monkeypatch.setattr(GaussianKDE, "evaluate_binned", counted)
    return calls


class TestOneEvaluationPerTimeline:
    def test_summarize(self, evaluations):
        stats.summarize(_bimodal())
        assert len(evaluations) == 1

    def test_profile_features(self, evaluations):
        profile_features(_bimodal())
        assert len(evaluations) == 1

    def test_corpus_point(self, evaluations):
        spec = CorpusSpec(silicon_workload(64, "dft_normal", nelm=2), 1, None, "a100-40g")
        spec.execute()
        # One node-power curve (profile features and hpm_w) plus one
        # GPU-power curve (tdp_fraction).
        assert len(evaluations) == 2

    def test_fig02_rows(self, evaluations):
        result = fig02_sampling.run()
        assert len(evaluations) == len(result.points) == len(fig02_sampling.SAMPLING_RATES_S)

    def test_fig06_rows(self, evaluations):
        result = fig06_system_size.run(sizes=(64, 128), nelm=2)
        # Node power and the 4-GPU total: one curve each per size.
        assert len(evaluations) == 2 * len(result.points)
