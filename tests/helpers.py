"""Small utilities shared across test modules."""

from pathlib import Path

import numpy as np

import clusterpersist
from clusterpersist import Dataset, gen_gaussian_mixture

DATA_DIR = Path(clusterpersist.__file__).parent / "data"


def blobs(centers, sd, n_per, seed=0):
    """Equal-size isotropic Gaussian blobs at the given centers."""
    centers = np.asarray(centers, dtype=float)
    covs = [sd * sd * np.eye(centers.shape[1])] * len(centers)
    return gen_gaussian_mixture(centers, covs, [n_per] * len(centers), seed)


def weighted_95_5():
    """Two blobs of 50 points each; the first carries 95% of the weight."""
    ds = blobs([(0, 0), (4.5, 4.5)], 0.5, 50, seed=0)
    w = np.r_[np.full(50, 0.95 / 50), np.full(50, 0.05 / 50)]
    return Dataset(ds.points, weights=w, labels=ds.labels)


def same_partition(a, b):
    """True when two label vectors induce the same partition of the indices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    fwd, rev = {}, {}
    for x, y in zip(a.tolist(), b.tolist()):
        if fwd.setdefault(x, y) != y or rev.setdefault(y, x) != x:
            return False
    return True


def sym(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) * scale
    return (A + A.T) / 2.0
