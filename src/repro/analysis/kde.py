"""Gaussian kernel density estimation.

A from-scratch, vectorized KDE (the paper determines the high power mode
from "the kernel density estimate (KDE) plot of the power timeline data
distribution").  Supports Silverman's and Scott's bandwidth rules, exact
evaluation on arbitrary grids and binned FFT evaluation on even grids.
``scipy.stats.gaussian_kde`` is used only in the test suite as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT_2PI = np.sqrt(2.0 * np.pi)

#: Binned evaluation bins onto a grid this many times finer than the
#: evaluation grid; at 1, a cap-study high power mode moves by 1.8 W.
BIN_REFINEMENT = 4
KERNEL_TAIL_BANDWIDTHS = 8.0


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

    def evaluate_binned(self, grid) -> np.ndarray:
        """Density on an evenly spaced ascending grid that contains the data.

        Bins the data linearly onto a grid ``BIN_REFINEMENT`` times finer,
        convolves it by FFT with the kernel out to ``KERNEL_TAIL_BANDWIDTHS``
        bandwidths, keeps every ``BIN_REFINEMENT``-th point and clips FFT
        round-off at 0: O(n + G log G) where :meth:`evaluate` is O(n G).  At
        grid spacing <= bandwidth/3 the two differ by about 2e-5 of the peak.
        """
        grid = np.asarray(grid, dtype=float).ravel()
        lo, hi = (float(grid[0]), float(grid[-1])) if grid.size > 1 else (0.0, 0.0)
        step = (hi - lo) / max(grid.size - 1, 1)
        # linspace rounds each point to within an ulp of its magnitude.
        slack = 1e-6 * step + 4.0 * float(np.spacing(max(abs(lo), abs(hi))))
        if not step > 0.0 or np.any(np.abs(np.diff(grid) - step) > slack):
            raise ValueError("binned evaluation needs an evenly spaced ascending grid")
        if self.data.min() < lo or self.data.max() > hi:
            raise ValueError(f"grid [{lo:g}, {hi:g}] does not contain every data point")
        h = self.bandwidth
        n_fine = BIN_REFINEMENT * (grid.size - 1) + 1
        fine_step = step / BIN_REFINEMENT
        # Each sample splits its weight between the two fine points around
        # it, in proportion to its distance from the other one.
        position = np.clip((self.data - lo) / fine_step, 0.0, n_fine - 1)
        left = np.minimum(position.astype(np.intp), n_fine - 2)
        right = position - left
        counts = np.bincount(left, 1.0 - right, n_fine) + np.bincount(left + 1, right, n_fine)
        # The kernel wraps around index 0 of a circle long enough that no
        # tail reaches a fine point from the other side.
        reach = min(int(np.ceil(KERNEL_TAIL_BANDWIDTHS * h / fine_step)), n_fine - 1)
        size = 1 << (n_fine + reach - 1).bit_length()
        z = np.arange(reach + 1) * (fine_step / h)
        kernel = np.zeros(size)
        kernel[: reach + 1] = np.exp(-0.5 * z * z)
        kernel[size - reach :] = kernel[reach:0:-1]
        fine = np.fft.irfft(np.fft.rfft(counts, size) * np.fft.rfft(kernel), size)
        return np.maximum(fine[:n_fine:BIN_REFINEMENT], 0.0) / (self.data.size * h * _SQRT_2PI)

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
        return cls(grid, kde.evaluate_binned(grid))
