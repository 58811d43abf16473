"""Fig 2: sampling-rate sensitivity of the power distribution.

The paper measures Si256_hse GPU power at 0.1-second resolution, then
down-samples to 0.5/1/2/5/10 s and shows: the high power mode is invariant
to the rate; its FWHM widens with coarser rates; the maximum shrinks
slightly; and the secondary mode disappears at the 10-second rate while
all three modes remain visible at 5 s or finer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.kde import KdeCurve
from repro.analysis.modes import fwhm_of, high_power_mode_of, modes_of
from repro.experiments.common import make_nodes, run_workload
from repro.experiments.report import format_table
from repro.telemetry.downsample import downsample_series
from repro.vasp.benchmarks import BENCHMARKS

#: The sampling rates of Fig 2, in seconds.
SAMPLING_RATES_S: tuple[float, ...] = (0.1, 0.5, 1.0, 2.0, 5.0, 10.0)


@dataclass(frozen=True)
class RatePoint:
    """Distribution statistics at one sampling rate."""

    rate_s: float
    max_w: float
    median_w: float
    min_w: float
    high_power_mode_w: float
    fwhm_w: float
    n_modes: int
    #: Whether the mid-power mode (the orbital-update phase, between the
    #: comm mode and the exchange mode) is still detected at this rate.
    mid_mode_detected: bool


#: GPU-power window that brackets the mid (orbital-update) mode.
MID_MODE_WINDOW_W: tuple[float, float] = (170.0, 280.0)


@dataclass
class Fig02Result:
    """The Fig 2 sweep: GPU power distribution vs sampling rate."""

    points: list[RatePoint]
    #: Modes found at the base (0.1 s) rate, for reference.
    base_mode_count: int


def run(seed: int = 7, min_prominence: float = 0.04) -> Fig02Result:
    """Run Si256_hse on one node and analyze GPU 0 at each rate."""
    workload = BENCHMARKS["Si256_hse"].build()
    measured = run_workload(workload, n_nodes=1, seed=seed, nodes=make_nodes(1))
    base = measured.result.traces[0]
    times = base.times
    series = base.gpu_power(0)
    points = []
    lo, hi = MID_MODE_WINDOW_W
    for rate in SAMPLING_RATES_S:
        _, values = downsample_series(times, series, rate)
        curve = KdeCurve.of(values)
        mode = high_power_mode_of(curve, min_prominence)
        modes = modes_of(curve, min_prominence)
        points.append(
            RatePoint(
                rate_s=rate,
                max_w=float(np.max(values)),
                median_w=float(np.median(values)),
                min_w=float(np.min(values)),
                high_power_mode_w=mode.power_w,
                fwhm_w=fwhm_of(curve, mode),
                n_modes=len(modes),
                mid_mode_detected=any(lo <= m.power_w <= hi for m in modes),
            )
        )
    return Fig02Result(points=points, base_mode_count=points[0].n_modes)


def render(result: Fig02Result) -> str:
    """ASCII rendering of the sampling-rate sweep."""
    return format_table(
        headers=[
            "Rate (s)",
            "Max (W)",
            "Median (W)",
            "Min (W)",
            "High power mode (W)",
            "FWHM (W)",
            "Modes",
            "Mid mode",
        ],
        rows=[
            [
                p.rate_s,
                p.max_w,
                p.median_w,
                p.min_w,
                p.high_power_mode_w,
                p.fwhm_w,
                p.n_modes,
                p.mid_mode_detected,
            ]
            for p in result.points
        ],
        title="Fig 2: GPU power distribution vs sampling rate (Si256_hse, per GPU)",
    )
