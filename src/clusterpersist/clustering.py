"""Clustering solutions: k-means for linearly separable data, normalized
spectral clustering (Ng-Jordan-Weiss) for shape data.

k-means uses greedy k-means++ seeding, Lloyd iterations to an assignment
fixed point, deterministic tie-breaking (lowest cluster index, lowest restart
index), and empty-cluster repair that reassigns the globally farthest point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset

__all__ = ["ClusteringSolution", "kmeans", "spectral_basis", "spectral_cluster"]

_LLOYD_CAP = 300


@dataclass
class ClusteringSolution:
    """Hard assignment of points to k clusters plus centroids.

    For spectral clustering the centroids live in the embedding space
    (k x k_embed), otherwise in feature space (k x d). Every cluster is
    nonempty and each centroid is the mean of its assigned points. The
    distortion is the weighted squared-Euclidean objective.
    """

    k: int
    assignment: np.ndarray
    centroids: np.ndarray
    distortion: float

    def __post_init__(self):
        counts = np.bincount(self.assignment, minlength=self.k)
        if self.k < 1 or np.any(counts == 0):
            raise ValueError("every cluster must be nonempty")

    def members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == j)


def _sq_distances(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    d2 = (X * X).sum(axis=1)[:, None] + (C * C).sum(axis=1)[None, :] - 2.0 * (X @ C.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++: sample candidates by the D^2 distribution, keep the
    one that lowers the potential most."""
    n = X.shape[0]
    trials = 2 + int(math.log(k)) if k > 1 else 1
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = _sq_distances(X, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            cand = np.array([rng.integers(n)])
        else:
            cand = rng.choice(n, size=trials, p=d2 / total)
        best_pot, best_c, best_d2 = np.inf, cand[0], None
        for c in cand:
            alt = np.minimum(d2, ((X - X[c]) ** 2).sum(axis=1))
            pot = alt.sum()
            if pot < best_pot:
                best_pot, best_c, best_d2 = pot, c, alt
        centers[j] = X[best_c]
        d2 = best_d2
    return centers


def _repair_empty(X: np.ndarray, assign: np.ndarray, centers: np.ndarray, counts: np.ndarray):
    """Move the point farthest from its centroid into each empty cluster,
    never draining a singleton."""
    for j in np.flatnonzero(counts == 0):
        dist = ((X - centers[assign]) ** 2).sum(axis=1)
        dist[counts[assign] <= 1] = -np.inf
        donor = int(np.argmax(dist))
        counts[assign[donor]] -= 1
        assign[donor] = j
        counts[j] = 1
        centers[j] = X[donor]


def _lloyd(X: np.ndarray, centers: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    assign = np.full(X.shape[0], -1)
    for _ in range(_LLOYD_CAP):
        new_assign = np.argmin(_sq_distances(X, centers), axis=1)
        counts = np.bincount(new_assign, minlength=k)
        if np.any(counts == 0):
            centers = np.vstack(
                [X[new_assign == j].mean(axis=0) if counts[j] else centers[j] for j in range(k)]
            )
            _repair_empty(X, new_assign, centers, counts)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = np.vstack([X[assign == j].mean(axis=0) for j in range(k)])
    return assign, centers


def kmeans(data: Dataset, k: int, restarts: int = 10, seed: int = 0) -> ClusteringSolution:
    """Best of `restarts` k-means++ runs, deterministic given seed.

    Ties in nearest-centroid go to the lowest cluster index; ties across
    restarts go to the lowest restart index.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if k > data.n:
        raise ValueError("k exceeds number of points")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    X = data.points
    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        centers = _kmeanspp_init(X, k, rng)
        assign, centers = _lloyd(X, centers, k)
        d2 = _sq_distances(X, centers)
        distortion = float(data.weights @ d2.min(axis=1))
        if best is None or distortion < best[0]:
            best = (distortion, assign, centers)
    distortion, assign, centers = best
    return ClusteringSolution(k=k, assignment=assign, centroids=centers, distortion=distortion)


def spectral_basis(K: np.ndarray, k_max: int) -> np.ndarray:
    """First k_max eigenvectors of the symmetric normalized Laplacian of K.

    Columns are ordered by ascending eigenvalue, so the Ng-Jordan-Weiss
    embedding at any k <= k_max is the first k columns. A persistence sweep
    computes this once and hands it to spectral_cluster at every k.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    deg = K.sum(axis=1)
    if np.any(deg <= 0):
        raise ValueError("isolated point")
    s = 1.0 / np.sqrt(deg)
    L = np.eye(n) - s[:, None] * K * s[None, :]
    L = (L + L.T) / 2.0
    # numpy's eigh serves as embedding infrastructure here; the persistence
    # eigenvalue paths use the solvers in linalg
    _, V = np.linalg.eigh(L)
    return V[:, :k_max].copy()


def spectral_cluster(
    K: np.ndarray,
    k: int,
    restarts: int = 10,
    seed: int = 0,
    *,
    basis: Optional[np.ndarray] = None,
) -> ClusteringSolution:
    """Ng-Jordan-Weiss spectral clustering on a dense similarity matrix.

    Embeds points with the k eigenvectors of the symmetric normalized
    Laplacian having smallest eigenvalue, row-normalizes, then runs kmeans.
    The returned centroids and distortion refer to the embedding space.
    basis, when given, is spectral_basis(K, k_max) for some k_max >= k and
    spares the Laplacian eigendecomposition; without it one is computed.
    """
    K = np.asarray(K, dtype=float)
    n = K.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    if k > n:
        raise ValueError("k exceeds number of points")
    basis = spectral_basis(K, k) if basis is None else np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != n or basis.shape[1] < k:
        raise ValueError(f"basis must have {n} rows and at least {k} columns")
    U = basis[:, :k]
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    U = U / norms
    emb = Dataset(U, name="embedding")
    sol = kmeans(emb, k, restarts=restarts, seed=seed)
    return sol
