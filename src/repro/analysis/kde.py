"""Gaussian kernel density estimation.

A from-scratch, vectorized KDE (the paper determines the high power mode
from "the kernel density estimate (KDE) plot of the power timeline data
distribution").  Supports Silverman's and Scott's bandwidth rules and
evaluation on arbitrary grids.  ``scipy.stats.gaussian_kde`` is used only
in the test suite as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _robust_sigma(data: np.ndarray) -> float:
    """min(std, IQR/1.34) — the robust spread both rules build on.

    A spread estimate below ``1e-12 x data span`` is treated as degenerate
    (e.g. an IQR produced by a denormal-tiny value in otherwise discrete
    data): using it would give a bandwidth no finite evaluation grid can
    resolve.
    """
    span = float(np.ptp(data))
    floor = span * 1e-12
    std = float(np.std(data))
    q75, q25 = np.percentile(data, [75.0, 25.0])
    iqr_sigma = float(q75 - q25) / 1.34
    candidates = [s for s in (std, iqr_sigma) if s > floor]
    return min(candidates) if candidates else 0.0


def silverman_bandwidth(data: np.ndarray) -> float:
    """Silverman's rule of thumb: 0.9 * sigma * n^(-1/5)."""
    data = np.asarray(data, dtype=float)
    if data.size < 2:
        raise ValueError("bandwidth needs at least two data points")
    sigma = _robust_sigma(data)
    if sigma == 0.0:
        # Degenerate (constant) data: any positive bandwidth works.
        return max(abs(float(data[0])) * 1e-3, 1e-3)
    return 0.9 * sigma * data.size ** (-0.2)


def scott_bandwidth(data: np.ndarray) -> float:
    """Scott's rule: 1.06 * sigma * n^(-1/5)."""
    data = np.asarray(data, dtype=float)
    if data.size < 2:
        raise ValueError("bandwidth needs at least two data points")
    sigma = _robust_sigma(data)
    if sigma == 0.0:
        return max(abs(float(data[0])) * 1e-3, 1e-3)
    return 1.06 * sigma * data.size ** (-0.2)


class GaussianKDE:
    """A 1-D Gaussian kernel density estimate.

    Parameters
    ----------
    data:
        Sample values (e.g. power readings in watts).
    bandwidth:
        Kernel width in data units, or ``"silverman"`` / ``"scott"``.
    """

    def __init__(self, data, bandwidth: float | str = "silverman") -> None:
        self.data = np.asarray(data, dtype=float).ravel()
        if self.data.size == 0:
            raise ValueError("KDE needs at least one data point")
        if isinstance(bandwidth, str):
            if bandwidth == "silverman":
                self.bandwidth = silverman_bandwidth(self.data)
            elif bandwidth == "scott":
                self.bandwidth = scott_bandwidth(self.data)
            else:
                raise ValueError(
                    f"unknown bandwidth rule {bandwidth!r}; use 'silverman' or 'scott'"
                )
        else:
            if bandwidth <= 0:
                raise ValueError(f"bandwidth must be positive, got {bandwidth}")
            self.bandwidth = float(bandwidth)

    def evaluate(self, grid) -> np.ndarray:
        """Density values on a grid (integrates to 1 over the real line)."""
        grid = np.atleast_1d(np.asarray(grid, dtype=float))
        # Chunk the outer product to bound memory for long timelines.
        out = np.zeros_like(grid)
        h = self.bandwidth
        n = self.data.size
        chunk = max(1, int(4e6 // max(grid.size, 1)))
        for start in range(0, n, chunk):
            # In place, in the operation order of exp(-0.5 * z * z): the
            # densities stay bit-identical without G x n temporaries per step.
            z = np.subtract.outer(grid, self.data[start : start + chunk])
            z /= h
            kernel = np.multiply(z, -0.5)
            kernel *= z
            out += np.exp(kernel, out=kernel).sum(axis=1)
        return out / (n * h * _SQRT_2PI)

    __call__ = evaluate

    def grid(self, n_points: int = 512, pad_bandwidths: float = 3.0) -> np.ndarray:
        """A natural evaluation grid spanning the data plus kernel tails.

        The point count adapts upward when the data span is large relative
        to the bandwidth (e.g. a narrow mode far from the bulk), so grid
        spacing stays below ``bandwidth / 3`` — otherwise narrow modes can
        fall between grid points.
        """
        if n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {n_points}")
        lo = float(self.data.min()) - pad_bandwidths * self.bandwidth
        hi = float(self.data.max()) + pad_bandwidths * self.bandwidth
        needed = int(np.ceil((hi - lo) / (self.bandwidth / 3.0))) + 1
        n_points = min(max(n_points, needed), 65536)
        return np.linspace(lo, hi, n_points)


@dataclass(frozen=True)
class KdeCurve:
    """A sample's KDE evaluated once on its natural grid, shared by every reader."""

    grid: np.ndarray
    density: np.ndarray

    @classmethod
    def of(cls, data, bandwidth: float | str = "silverman", n_grid: int = 1024) -> "KdeCurve":
        kde = GaussianKDE(data, bandwidth=bandwidth)
        grid = kde.grid(n_points=n_grid)
        return cls(grid, kde.evaluate(grid))
