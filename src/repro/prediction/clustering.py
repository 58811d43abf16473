"""Top-down workload classification from power profiles alone.

Section VI-B: "While it is doable to deep-dive into a small number of top
applications, this level of detailed study is not practical for all
applications... These other workloads will necessitate a more statistical
approach... we also plan to explore top-down methods."

This module is that approach's first rung: extract application-agnostic
features from a measured power series (no INCAR, no knowledge of what
ran), and cluster jobs into power classes with a small from-scratch
k-means.  On the benchmark suite it rediscovers the paper's taxonomy —
the higher-order (HSE/RPA) jobs separate cleanly from the basic-DFT
group — using nothing but telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.kde import KdeCurve
from repro.analysis.modes import fwhm_of, high_power_mode_of

#: Names of the profile-feature entries, in order.
PROFILE_FEATURE_NAMES: tuple[str, ...] = (
    "high_power_mode_w",
    "median_w",
    "fwhm_w",
    "peak_to_mode",
    "mode_dwell_fraction",
)


def profile_features(values: np.ndarray) -> np.ndarray:
    """Application-agnostic features of one job's power series."""
    values = np.asarray(values, dtype=float).ravel()
    if values.size < 8:
        raise ValueError(f"need at least 8 samples, got {values.size}")
    curve = KdeCurve.of(values)
    mode = high_power_mode_of(curve)
    width = fwhm_of(curve, mode)
    dwell = float(np.mean(np.abs(values - mode.power_w) <= max(width, 1e-9)))
    return np.array(
        [
            mode.power_w,
            float(np.median(values)),
            width,
            float(values.max()) / mode.power_w,
            dwell,
        ]
    )


@dataclass
class ClusterModel:
    """A fitted k-means model over standardized profile features."""

    centroids: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray
    labels: np.ndarray
    inertia: float

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self.centroids.shape[0]

    def assign(self, features: np.ndarray) -> int:
        """Cluster index for one feature vector."""
        z = (np.asarray(features, dtype=float) - self.feature_mean) / self.feature_scale
        distances = np.linalg.norm(self.centroids - z, axis=1)
        return int(np.argmin(distances))

    def centroid_power_order(self) -> list[int]:
        """Cluster indices ordered by ascending high-power-mode centroid."""
        hpm_axis = 0  # first feature is the high power mode
        raw = self.centroids[:, hpm_axis] * self.feature_scale[hpm_axis] + self.feature_mean[hpm_axis]
        return list(np.argsort(raw))


def kmeans_profiles(
    feature_matrix: np.ndarray,
    k: int = 2,
    n_restarts: int = 8,
    max_iterations: int = 100,
    seed: int = 0,
) -> ClusterModel:
    """K-means over standardized profile features (Lloyd's algorithm).

    Deterministic for a given seed; the best of ``n_restarts`` random
    initializations (k-means++ seeding) is returned.
    """
    x = np.asarray(feature_matrix, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {x.shape}")
    n, _ = x.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    mean = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0] = 1.0
    z = (x - mean) / scale

    rng = np.random.default_rng(seed)
    best: ClusterModel | None = None
    for _restart in range(max(n_restarts, 1)):
        centroids = _kmeanspp_init(z, k, rng)
        labels = np.full(n, -1, dtype=int)
        for _iteration in range(max_iterations):
            distances = np.linalg.norm(z[:, None, :] - centroids[None, :, :], axis=2)
            new_labels = np.argmin(distances, axis=1)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for c in range(k):
                members = z[labels == c]
                if len(members):
                    centroids[c] = members.mean(axis=0)
        inertia = float(np.sum((z - centroids[labels]) ** 2))
        if best is None or inertia < best.inertia:
            best = ClusterModel(
                centroids=centroids.copy(),
                feature_mean=mean,
                feature_scale=scale,
                labels=labels.copy(),
                inertia=inertia,
            )
    assert best is not None
    return best


def _kmeanspp_init(z: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread the initial centroids."""
    n = len(z)
    centroids = [z[rng.integers(n)]]
    while len(centroids) < k:
        d2 = np.min(
            [np.sum((z - c) ** 2, axis=1) for c in centroids], axis=0
        )
        total = d2.sum()
        if total <= 0:
            centroids.append(z[rng.integers(n)])
            continue
        probs = d2 / total
        centroids.append(z[rng.choice(n, p=probs)])
    return np.stack(centroids)


@dataclass
class ProfileClassifier:
    """Stage 1 of the two-stage surrogate: workload power classes.

    Fitted on **engine-derived profile features** (the same
    telemetry-only :func:`profile_features` the top-down study uses), so
    the classes are power classes, not input-file classes.  At prediction
    time no power series exists yet, so assignment goes through the
    scheduler-visible *input* features instead: each class carries the
    centroid of its members' standardized input features, and a novel job
    is assigned to the nearest one.

    The distance to that centroid is the stage-1 **envelope** signal: a
    job far from every class it trained on is extrapolation, and the
    surrogate's caller should fall back to the engine.

    Classes are renumbered by ascending high-power-mode centroid (class 0
    is the lowest-power class), stable across seeds.
    """

    profile_model: ClusterModel
    input_mean: np.ndarray
    input_scale: np.ndarray
    #: Per-class centroid of standardized input features, class-ordered.
    input_centroids: np.ndarray
    #: Largest member-to-own-centroid input distance seen in training,
    #: per class — the in-envelope radius.
    class_radius: np.ndarray
    #: Training labels (class-ordered), aligned with the fitted matrix.
    labels: np.ndarray

    @property
    def k(self) -> int:
        """Number of classes."""
        return self.input_centroids.shape[0]

    def standardize(self, input_features: np.ndarray) -> np.ndarray:
        """Standardize one input-feature vector with the training scale."""
        z = (np.asarray(input_features, dtype=float) - self.input_mean)
        return z / self.input_scale

    def classify(self, input_features: np.ndarray) -> tuple[int, float]:
        """(class index, distance to its centroid) for one input vector."""
        z = self.standardize(input_features)
        distances = np.linalg.norm(self.input_centroids - z, axis=1)
        cls = int(np.argmin(distances))
        return cls, float(distances[cls])

    def in_envelope(self, cls: int, distance: float, margin: float = 1.5) -> bool:
        """Whether a distance sits inside the class's training envelope.

        ``margin`` widens the observed in-class radius: mild
        interpolation beyond the exact training hull is what the
        surrogate is *for*; multiples of it are extrapolation.
        """
        return distance <= self.class_radius[cls] * margin + 1e-9


def fit_profile_classifier(
    profile_matrix: np.ndarray,
    input_matrix: np.ndarray,
    k: int = 2,
    seed: int = 0,
) -> ProfileClassifier:
    """Fit stage 1: k-means on profiles, input-feature assignment on top.

    ``profile_matrix`` rows are :func:`profile_features` of each training
    run's power series; ``input_matrix`` rows are the matching
    scheduler-visible feature vectors.  Rows must align.
    """
    profiles = np.asarray(profile_matrix, dtype=float)
    inputs = np.asarray(input_matrix, dtype=float)
    if profiles.shape[0] != inputs.shape[0]:
        raise ValueError(
            f"profile rows ({profiles.shape[0]}) and input rows "
            f"({inputs.shape[0]}) must align"
        )
    model = kmeans_profiles(profiles, k=k, seed=seed)
    order = model.centroid_power_order()
    rank = {cluster: position for position, cluster in enumerate(order)}
    labels = np.array([rank[int(label)] for label in model.labels], dtype=int)

    mean = inputs.mean(axis=0)
    scale = inputs.std(axis=0)
    scale[scale == 0] = 1.0
    z = (inputs - mean) / scale
    centroids = np.stack(
        [
            z[labels == cls].mean(axis=0) if np.any(labels == cls) else mean * 0.0
            for cls in range(model.k)
        ]
    )
    radius = np.array(
        [
            float(np.linalg.norm(z[labels == cls] - centroids[cls], axis=1).max())
            if np.any(labels == cls)
            else 0.0
            for cls in range(model.k)
        ]
    )
    return ProfileClassifier(
        profile_model=model,
        input_mean=mean,
        input_scale=scale,
        input_centroids=centroids,
        class_radius=radius,
        labels=labels,
    )


def classify_jobs(
    series_by_job: dict[str, np.ndarray], k: int = 2, seed: int = 0
) -> dict[str, int]:
    """Cluster a set of jobs' power series into ``k`` power classes.

    Returns job name -> class index, with classes renumbered so 0 is the
    lowest-power class (stable across seeds).
    """
    names = sorted(series_by_job)
    matrix = np.stack([profile_features(series_by_job[name]) for name in names])
    model = kmeans_profiles(matrix, k=k, seed=seed)
    order = model.centroid_power_order()
    rank = {cluster: position for position, cluster in enumerate(order)}
    return {name: rank[int(label)] for name, label in zip(names, model.labels)}
