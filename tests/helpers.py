"""Small utilities shared across test modules."""

from pathlib import Path

import numpy as np

import clusterpersist
from clusterpersist import gen_gaussian_mixture

DATA_DIR = Path(clusterpersist.__file__).parent / "data"


def blobs(centers, sd, n_per, seed=0):
    """Equal-size isotropic Gaussian blobs at the given centers."""
    centers = np.asarray(centers, dtype=float)
    covs = [sd * sd * np.eye(centers.shape[1])] * len(centers)
    return gen_gaussian_mixture(centers, covs, [n_per] * len(centers), seed)


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
