"""Clustering solutions: k-means for linearly separable data, normalized
spectral clustering (Ng-Jordan-Weiss) for shape data.

k-means takes unweighted points and uses greedy k-means++ seeding, Lloyd
iterations to an assignment fixed point, deterministic tie-breaking (lowest
cluster index, lowest restart index), and empty-cluster repair that
reassigns the globally farthest point.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset
from .linalg import _sq_distances

__all__ = ["ClusteringSolution", "kmeans", "spectral_basis", "spectral_cluster"]

_LLOYD_CAP = 300


@dataclass
class ClusteringSolution:
    """Hard assignment of points to k clusters plus centroids.

    For spectral clustering the centroids live in the embedding space
    (k x k_embed), otherwise in feature space (k x d). Every label lies in
    0..k-1, every cluster is nonempty, there is one centroid row per cluster
    and each centroid is the mean of its assigned points. The distortion is
    the mean squared-Euclidean objective (p_i = 1/N).
    """

    k: int
    assignment: np.ndarray
    centroids: np.ndarray
    distortion: float

    def __post_init__(self):
        counts = np.bincount(self.assignment, minlength=self.k)
        if counts.size > self.k:
            raise ValueError(f"cluster labels must lie below k={self.k}")
        if self.k < 1 or np.any(counts == 0):
            raise ValueError("every cluster must be nonempty")
        if np.ndim(self.centroids) != 2 or len(self.centroids) != self.k:
            raise ValueError(f"centroids must be a 2-d array of k={self.k} rows")

    def members(self, j: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == j)


# numpy sums a row of fewer than 8 values left to right, which is also the
# order in which adding the rows of the transposed copy sums each column;
# from 8 values on it sums a row pairwise in blocks of 8, the two orders
# differ in the last bit, and a one-ulp change in the D^2 distribution can
# change a k-means++ draw
_TRANSPOSED_MAX_D = 7


def _scoring_copy(X: np.ndarray) -> Optional[np.ndarray]:
    """The C-contiguous (d, N) copy of X that _candidate_sq_distances scores
    on, or None where the transposed sums would not be bitwise equal."""
    return np.ascontiguousarray(X.T) if X.shape[1] <= _TRANSPOSED_MAX_D else None


def _candidate_sq_distances(X: np.ndarray, XT: Optional[np.ndarray], c: int) -> np.ndarray:
    """((X - X[c]) ** 2).sum(axis=1), bitwise; XT is _scoring_copy(X).

    Summing the rows of XT takes about a tenth of the time of summing the
    short rows of X.
    """
    if XT is None:
        return ((X - X[c]) ** 2).sum(axis=1)
    D = XT - XT[:, c : c + 1]
    D *= D
    return D.sum(axis=0)


def _kmeanspp_init(
    X: np.ndarray, x2: np.ndarray, XT: Optional[np.ndarray], k: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy k-means++: sample candidates by the D^2 distribution, keep the
    one that lowers the potential most."""
    n = X.shape[0]
    trials = 2 + int(math.log(k)) if k > 1 else 1
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = _sq_distances(X, x2, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            cand = np.array([rng.integers(n)])
        else:
            cand = rng.choice(n, size=trials, p=d2 / total)
        best_pot, best_c, best_d2 = np.inf, cand[0], None
        for c in cand:
            alt = np.minimum(d2, _candidate_sq_distances(X, XT, c))
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


def _cluster_means(
    X: np.ndarray, assign: np.ndarray, counts: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Mean of the points of each cluster; an empty cluster keeps its center.

    A stable sort groups the rows by cluster in their original order, so each
    mean is bitwise X[assign == j].mean(axis=0). Sums that scatter or reduce
    by segment (bincount, add.at, add.reduceat) add in another order.
    """
    # a stable sort of 16-bit keys is a radix sort
    keys = assign.astype(np.int16) if counts.size < 2**15 else assign
    Xs = X[np.argsort(keys, kind="stable")]
    means = centers.copy()
    start = 0
    for j, count in enumerate(counts.tolist()):
        if count:
            means[j] = Xs[start : start + count].mean(axis=0)
            start += count
    return means


def _lloyd(
    X: np.ndarray, x2: np.ndarray, centers: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Lloyd iterations from the given centers to an assignment fixed point.

    Returns the assignment, the centers and each point's squared distance to
    its center; the distances are None when the last iteration repaired an
    empty cluster or hit the cap, since the centers moved after them.
    """
    assign = np.full(X.shape[0], -1)
    for _ in range(_LLOYD_CAP):
        d2 = _sq_distances(X, x2, centers)
        new_assign = np.argmin(d2, axis=1)
        # the row minimum, in O(N); the N x k matrix goes before the means
        closest = np.take_along_axis(d2, new_assign[:, None], axis=1)[:, 0]
        del d2
        counts = np.bincount(new_assign, minlength=k)
        if np.any(counts == 0):
            centers = _cluster_means(X, new_assign, counts, centers)
            _repair_empty(X, new_assign, centers, counts)
            closest = None
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = _cluster_means(X, assign, counts, centers)
    else:
        warnings.warn(
            f"k={k}: Lloyd iterations stopped at the cap of {_LLOYD_CAP} "
            "before the assignment settled",
            RuntimeWarning,
            stacklevel=2,
        )
        closest = None
    return assign, centers, closest


def kmeans(data: Dataset, k: int, restarts: int = 10, seed: int = 0) -> ClusteringSolution:
    """Best of `restarts` k-means++ runs, deterministic given seed.

    Ties in nearest-centroid go to the lowest cluster index; ties across
    restarts go to the lowest restart index. The distortion is the mean
    squared distance of each point to its centroid (p_i = 1/N). A Lloyd run
    that reaches the iteration cap before its assignment settles emits a
    RuntimeWarning and keeps its last assignment.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if k > data.n:
        raise ValueError("k exceeds number of points")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    X = data.points
    x2 = data.sq_norms
    XT = _scoring_copy(X)
    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        centers = _kmeanspp_init(X, x2, XT, k, rng)
        assign, centers, closest = _lloyd(X, x2, centers, k)
        if closest is None:
            closest = _sq_distances(X, x2, centers).min(axis=1)
        distortion = float(data.weights @ closest)
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
    basis: np.ndarray, k: int, restarts: int = 10, seed: int = 0
) -> ClusteringSolution:
    """Ng-Jordan-Weiss spectral clustering from a Laplacian basis.

    basis is spectral_basis(K, k_max) for a similarity matrix K and some
    k_max >= k. The first k columns, the eigenvectors of the symmetric
    normalized Laplacian with smallest eigenvalue, embed the points; the rows
    are normalized and kmeans clusters them. The returned centroids and
    distortion refer to the embedding space.
    """
    if not 1 <= k <= basis.shape[1]:
        raise ValueError(f"k must lie in 1..{basis.shape[1]}, the columns of the basis")
    U = basis[:, :k]
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    U = U / norms
    return kmeans(Dataset(U), k, restarts=restarts, seed=seed)
