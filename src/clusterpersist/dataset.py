"""Dataset container, CSV loading, z-score normalization, and synthetic generators.

All generators are pure functions of their parameters and seed, built on
numpy's seedable PCG64 generator so repeat runs are bit-identical.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Dataset",
    "normalize_zscore",
    "load_csv",
    "gen_gaussian_mixture",
    "gen_two_disks",
    "gen_supercluster_grid",
    "gen_rings",
    "gen_spirals",
]

# Spiral arm geometry (radial range and number of turns) is fixed so that
# gen_spirals is fully determined by its four arguments. The values were tuned
# so that three arms at sigma=0.08 give a clear persistence peak at k=3.
_SPIRAL_R0 = 0.5
_SPIRAL_R1 = 3.0
_SPIRAL_TURNS = 1.5


@dataclass
class Dataset:
    """Points with optional ground-truth labels.

    points is an (N, d) float array. The points are unweighted: the
    estimator's scatters are plain sums over members, and the annealing
    toolkit takes p_i = 1/N. Instances are treated as immutable: the arrays
    are private read-only copies, so the caller's arrays stay writable and a
    later write to them cannot reach the dataset. points is C-ordered
    whatever the layout of its input, so every layout of the same values
    gives the same bits downstream.

    Two fields are derived, not init arguments, read-only and left out of
    repr and ==: sq_norms holds the squared norms (points * points).sum(axis=1),
    computed once here for k-means, the annealing toolkit and the Gaussian
    kernel; weights holds the uniform point masses p_i = 1/N that the
    annealing toolkit and the k-means distortion read.
    """

    points: np.ndarray
    labels: Optional[np.ndarray] = None
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.array(self.points, dtype=float, order="C")
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("empty dataset")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain NaN or Inf")
        n = pts.shape[0]
        w = np.full(n, 1.0 / n)
        lab = self.labels
        if lab is not None:
            lab = np.array(lab, dtype=int)
            if lab.shape != (n,):
                raise ValueError("labels length does not match points")
            lab.setflags(write=False)
        sq = (pts * pts).sum(axis=1)
        pts.setflags(write=False)
        w.setflags(write=False)
        sq.setflags(write=False)
        self.points = pts
        self.labels = lab
        self.sq_norms = sq
        self.weights = w

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]


def normalize_zscore(data: Dataset) -> Dataset:
    """Center each feature and scale to unit population standard deviation.

    Constant columns become all-zero columns instead of erroring, so real
    datasets with degenerate features still load. Labels pass through
    unchanged. Idempotent within 1e-9.
    """
    X = data.points
    mu = X.mean(axis=0)
    sd = X.std(axis=0)  # population convention: divide by N
    out = X - mu
    nonconst = sd > 0
    out[:, nonconst] /= sd[nonconst]
    out[:, ~nonconst] = 0.0
    return Dataset(out, labels=data.labels)


def load_csv(path, has_header: bool = False, label_column: Optional[int] = None) -> Dataset:
    """Load a rectangular numeric CSV, optionally taking one column as labels.

    Parse failures report the physical 1-based row and column of the
    offending cell.
    """
    path = Path(path)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            rows.append(row)
    start = 1 if has_header else 0
    data_rows = rows[start:]
    if not data_rows:
        raise ValueError("empty dataset")
    width = len(data_rows[0])
    values = np.empty((len(data_rows), width))
    for i, row in enumerate(data_rows):
        rownum = start + i + 1
        if len(row) != width:
            raise ValueError(
                f"ragged row {rownum}: expected {width} cells, got {len(row)}"
            )
        for j, cell in enumerate(row):
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise ValueError(
                    f"parse error at row {rownum}, column {j + 1}: {cell!r} is not numeric"
                ) from None
    labels = None
    if label_column is not None:
        if not 0 <= label_column < width:
            raise ValueError(f"label column {label_column} out of range for width {width}")
        lab = values[:, label_column]
        if not np.all(lab == np.round(lab)):
            raise ValueError("label column must be integer-valued")
        labels = lab.astype(int)
        values = np.delete(values, label_column, axis=1)
    return Dataset(values, labels=labels)


def _sample_gaussian(rng, mean, cov, count):
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (mean.size, mean.size):
        raise ValueError("covariance shape does not match mean dimension")
    if not np.allclose(cov, cov.T, atol=1e-12):
        raise ValueError("covariance must be symmetric positive definite")
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise ValueError("covariance must be symmetric positive definite") from None
    z = rng.standard_normal((count, mean.size))
    return mean + z @ L.T


def gen_gaussian_mixture(means, covariances, counts, seed: int) -> Dataset:
    """Sample a labeled Gaussian mixture with the given component counts."""
    if len(means) != len(covariances) or len(means) != len(counts):
        raise ValueError("means, covariances and counts must have equal length")
    if any(int(c) <= 0 for c in counts):
        raise ValueError("component counts must be positive")
    rng = np.random.default_rng(seed)
    pts, labs = [], []
    for j, (m, c, n) in enumerate(zip(means, covariances, counts)):
        pts.append(_sample_gaussian(rng, m, c, int(n)))
        labs.append(np.full(int(n), j))
    return Dataset(np.vstack(pts), labels=np.concatenate(labs))


def gen_two_disks(R: float, center_gap: float, n_per_disk: int, seed: int) -> Dataset:
    """Uniform samples in two disks of radius R with centers center_gap apart.

    Centers sit at (0, -gap/2) and (0, +gap/2); labels are 0/1 per disk.
    """
    if R <= 0 or center_gap <= 0:
        raise ValueError("R and center_gap must be positive")
    if n_per_disk < 1:
        raise ValueError("n_per_disk must be at least 1")
    rng = np.random.default_rng(seed)
    pts = []
    for cy in (-center_gap / 2.0, center_gap / 2.0):
        r = R * np.sqrt(rng.uniform(size=n_per_disk))
        th = rng.uniform(0, 2 * np.pi, size=n_per_disk)
        pts.append(np.c_[r * np.cos(th), cy + r * np.sin(th)])
    labels = np.repeat([0, 1], n_per_disk)
    return Dataset(np.vstack(pts), labels=labels)


def gen_supercluster_grid(
    super_spacing: float, sub_spacing: float, sub_cov, n_per_sub: int, seed: int
) -> Dataset:
    """Nine Gaussian blobs arranged as three superclusters of three.

    Super-centers sit on an equilateral triangle of circumradius
    super_spacing; each carries three blob centers on a rotated triangle of
    circumradius sub_spacing. Labels run 0..8.
    """
    if not super_spacing > sub_spacing > 0:
        raise ValueError("require super_spacing > sub_spacing > 0")
    means = []
    for sa in np.deg2rad([90.0, 210.0, 330.0]):
        sc = super_spacing * np.array([np.cos(sa), np.sin(sa)])
        for ba in np.deg2rad([30.0, 150.0, 270.0]):
            means.append(sc + sub_spacing * np.array([np.cos(ba), np.sin(ba)]))
    return gen_gaussian_mixture(means, [sub_cov] * 9, [n_per_sub] * 9, seed)


def gen_rings(radii: Sequence[float], n_per_ring: int, noise_sd: float, seed: int) -> Dataset:
    """Concentric rings: evenly spaced angles per ring plus Gaussian jitter."""
    radii = [float(r) for r in radii]
    if any(r <= 0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be positive and strictly increasing")
    if n_per_ring < 1:
        raise ValueError("n_per_ring must be at least 1")
    rng = np.random.default_rng(seed)
    pts, labs = [], []
    for j, r in enumerate(radii):
        th = np.linspace(0, 2 * np.pi, n_per_ring, endpoint=False) + rng.uniform(0, 2 * np.pi)
        ring = np.c_[r * np.cos(th), r * np.sin(th)]
        ring += noise_sd * rng.standard_normal(ring.shape)
        pts.append(ring)
        labs.append(np.full(n_per_ring, j))
    return Dataset(np.vstack(pts), labels=np.concatenate(labs))


def gen_spirals(n_arms: int, n_per_arm: int, noise_sd: float, seed: int) -> Dataset:
    """Interleaved spiral arms with Gaussian jitter, labeled per arm."""
    if n_arms < 1:
        raise ValueError("n_arms must be at least 1")
    if n_per_arm < 1:
        raise ValueError("n_per_arm must be at least 1")
    rng = np.random.default_rng(seed)
    pts, labs = [], []
    t = np.linspace(0.0, 1.0, n_per_arm)
    for j in range(n_arms):
        th = 2 * np.pi * _SPIRAL_TURNS * t + 2 * np.pi * j / n_arms
        r = _SPIRAL_R0 + (_SPIRAL_R1 - _SPIRAL_R0) * t
        arm = np.c_[r * np.cos(th), r * np.sin(th)]
        arm += noise_sd * rng.standard_normal(arm.shape)
        pts.append(arm)
        labs.append(np.full(n_per_arm, j))
    return Dataset(np.vstack(pts), labels=np.concatenate(labs))
