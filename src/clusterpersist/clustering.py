"""Clustering solutions: k-means for linearly separable data, normalized
spectral clustering (Ng-Jordan-Weiss) for shape data.

k-means takes unweighted points and uses greedy k-means++ seeding, Lloyd
iterations to an assignment fixed point, deterministic tie-breaking (lowest
cluster index, lowest restart index), and empty-cluster repair that
reassigns the globally farthest point.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset
from .linalg import _BLOCK_BYTES, _EPS, _sq_distances

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


def _sample_d2(
    d2: np.ndarray, total: float, trials: int, rng: np.random.Generator, cdf: np.ndarray
) -> np.ndarray:
    """rng.choice(len(d2), size=trials, p=d2 / total), step for step: the
    same indices, and rng left in the same state, without choice's checks
    on p, which cost more than the draw. cdf is a scratch array of len(d2).
    """
    np.divide(d2, total, out=cdf)
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(trials), side="right")


def _score_candidates(
    X: np.ndarray, XT: Optional[np.ndarray], cand: np.ndarray, out: np.ndarray, diff: np.ndarray
) -> np.ndarray:
    """Write ((X - X[c]) ** 2).sum(axis=1), bitwise, into row i of out for
    each c = cand[i], and return those rows. XT is the C-contiguous (d, N)
    copy of X, or None above _TRANSPOSED_MAX_D coordinates.

    With an XT, all candidates are scored at once, one coordinate row at a
    time, in about a tenth of the time of summing the short rows of X; diff
    is a scratch array of out's shape. Otherwise each candidate is scored on
    its own and diff has X's shape: one (len(cand), N, d) difference array
    would take len(cand) times the memory and, at large N * d, more time.
    """
    rows = out[: len(cand)]
    if XT is None:
        for row, c in zip(rows, cand):
            np.subtract(X, X[c], out=diff)
            diff *= diff
            diff.sum(axis=1, out=row)
        return rows
    part = diff[: len(cand)]
    np.subtract(XT[0], XT[0, cand][:, None], out=rows)
    rows *= rows
    for coord in XT[1:]:
        np.subtract(coord, coord[cand][:, None], out=part)
        part *= part
        rows += part
    return rows


def _kmeanspp_init(
    X: np.ndarray, x2: np.ndarray, XT: Optional[np.ndarray], k: int, rng: np.random.Generator
) -> np.ndarray:
    """Greedy k-means++: sample candidates by the D^2 distribution, keep the
    one that lowers the potential most; XT is as in _score_candidates."""
    n = X.shape[0]
    trials = 2 + int(math.log(k)) if k > 1 else 1
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = _sq_distances(X, x2, centers[:1])[:, 0]
    cdf, scores = np.empty(n), np.empty((trials, n))
    diff = np.empty(X.shape if XT is None else scores.shape)
    total = d2.sum()
    for j in range(1, k):
        if not math.isfinite(total):
            raise ValueError(
                f"k-means++: the squared distances of the points overflow (their sum "
                f"is {total}); rescale the data"
            )
        if total <= 0:
            cand = np.array([rng.integers(n)])
        else:
            cand = _sample_d2(d2, total, trials, rng, cdf)
        alt = _score_candidates(X, XT, cand, scores, diff)
        np.minimum(d2, alt, out=alt)
        # the first candidate with the lowest potential wins; its potential
        # is the pairwise sum of its row, bitwise the next d2.sum()
        potentials = alt.sum(axis=1)
        best = int(np.argmin(potentials))
        centers[j] = X[cand[best]]
        d2[:] = alt[best]
        total = potentials[best]
    return centers


def _repair_empty(X: np.ndarray, assign: np.ndarray, means: np.ndarray, counts: np.ndarray):
    """Move the point farthest from its cluster mean into each empty cluster,
    never draining a singleton; means[j] becomes that point."""
    for j in np.flatnonzero(counts == 0):
        dist = ((X - means[assign]) ** 2).sum(axis=1)
        dist[counts[assign] <= 1] = -np.inf
        donor = int(np.argmax(dist))
        counts[assign[donor]] -= 1
        assign[donor] = j
        counts[j] = 1
        means[j] = X[donor]


def _cluster_means(
    XT: np.ndarray, assign: np.ndarray, counts: np.ndarray, clusters: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Set out[j] to the mean of the points of cluster j for each nonempty
    cluster j listed in clusters, and return out; XT is the C-contiguous
    (d, N) copy of the points X.

    Each mean is bitwise X[assign == j].mean(axis=0). With two or more
    coordinates numpy's column sum starts from +0.0 and adds the rows of a
    cluster in their original order, and so does one weighted bincount per
    coordinate row of XT, for every cluster at once. With one coordinate
    numpy sums the column pairwise; a stable sort then groups the rows by
    cluster in their original order and each cluster is averaged on its own.
    Segment sums (np.add.reduceat) add in yet another order.
    """
    clusters = clusters[counts[clusters] > 0]
    if len(XT) > 1:
        sums = np.empty((len(XT), len(counts)))
        for row, coord in zip(sums, XT):
            row[:] = np.bincount(assign, weights=coord, minlength=len(counts))
        out[clusters] = sums[:, clusters].T / counts[clusters, None]
        return out
    # a stable sort of 16-bit keys is a radix sort
    keys = assign.astype(np.int16) if counts.size < 2**15 else assign
    Xs = XT.T[np.argsort(keys, kind="stable")]
    starts = np.cumsum(counts) - counts
    for j, lo, size in zip(clusters.tolist(), starts[clusters].tolist(), counts[clusters].tolist()):
        out[j] = Xs[lo : lo + size].mean(axis=0)
    return out


def _refresh(
    X: np.ndarray, x2: np.ndarray, centers: np.ndarray, d2: np.ndarray, cols: np.ndarray
) -> None:
    """Write the squared distances of the points to centers[cols] into d2[:, cols].

    The rows go to _sq_distances in blocks of about _BLOCK_BYTES of output,
    so the temporaries stay in cache. Each block is bitwise those rows and
    columns of the full product: OpenBLAS multiplies two or more rows by two
    or more columns with the same gemm kernel whatever the shape, but takes a
    single row or column through gemv. So no block is a single row, and a
    single column, which only k = 1 refreshes, is never split. A refresh of
    every column hands each row block of d2 to _sq_distances as its output;
    a refresh of some columns writes its result through a fancy index.
    """
    n, width = X.shape[0], len(cols)
    # no more than n // 2 blocks, so each has two or more rows
    blocks = min(math.ceil(8 * n * width / _BLOCK_BYTES), n // 2) if width > 1 else 1
    whole = width == d2.shape[1]
    C = centers if whole else centers[cols]
    for b in range(blocks):
        lo, hi = n * b // blocks, n * (b + 1) // blocks
        if whole:
            _sq_distances(X[lo:hi], x2[lo:hi], C, out=d2[lo:hi])
        else:
            d2[lo:hi, cols] = _sq_distances(X[lo:hi], x2[lo:hi], C)


def _lloyd(
    X: np.ndarray, x2: np.ndarray, XT: np.ndarray, centers: np.ndarray, d2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations from the given centers to an assignment fixed point;
    XT is the C-contiguous (d, N) copy of X, and d2 an N x k scratch array.

    Returns the assignment, the centers, each the mean of its members, and
    each point's squared distance to its nearest center. A run settles when
    the assignment after any empty-cluster repair equals the one before, and
    returns the centers it was measured against.

    The scratch array d2 holds the distances for the whole run. When it spans
    more than one row block, an update gives a new mean and a new column
    only to the clusters that a point entered or left; any other cluster
    kept its members, so its mean and its column are unchanged bit for bit.
    A smaller matrix is refreshed whole, in place. The row argmin is copied
    only when a repair edits the assignment, and the distances to the
    nearest centers are gathered only on the pass that returns.

    A run stops early, with a RuntimeWarning, when an assignment equals the
    one two passes before: each assignment fixes the next, so the run would
    cycle until the cap. A run that stops early or at the cap returns its
    last assignment, its means and the minimum of the refreshed matrix.
    """
    n, k = d2.shape
    centers = centers.copy()
    every = np.arange(k)
    # on a matrix of one block, finding the touched clusters makes a tables
    # solve about 10% slower than refreshing every column
    several_blocks = 8 * n * k > _BLOCK_BYTES
    _refresh(X, x2, centers, d2, every)
    before = assign = np.full(n, -1)
    for _ in range(_LLOYD_CAP):
        nearest = new_assign = np.argmin(d2, axis=1)
        counts = np.bincount(new_assign, minlength=k)
        if np.any(counts == 0):
            new_assign = nearest.copy()
            means = _cluster_means(XT, new_assign, counts, every, np.zeros_like(centers))
            _repair_empty(X, new_assign, means, counts)
        moved = new_assign != assign
        if not moved.any():
            return assign, centers, d2[np.arange(n), nearest]
        if np.array_equal(new_assign, before):
            stop = "in a cycle of two assignments"
            break
        touched = every
        if several_blocks:
            # a moved point leaves one cluster and enters another, so only
            # k = 1 refreshes a lone column; the label -1 of the first pass
            # is no cluster
            touched = np.union1d(assign[moved], new_assign[moved])
            touched = touched[touched >= 0]
        before, assign = assign, new_assign
        _cluster_means(XT, assign, counts, touched, centers)
        _refresh(X, x2, centers, d2, touched)
    else:
        stop = f"at the cap of {_LLOYD_CAP}"
    warnings.warn(
        f"k={k}: Lloyd iterations stopped {stop} before the assignment settled",
        RuntimeWarning,
        stacklevel=2,
    )
    return assign, centers, d2.min(axis=1)


def kmeans(data: Dataset, k: int, restarts: int = 10, seed: int = 0) -> ClusteringSolution:
    """Best of `restarts` k-means++ runs, deterministic given seed.

    Ties in nearest-centroid go to the lowest cluster index; ties across
    restarts go to the lowest restart index. The distortion is the mean
    squared distance of each point to its centroid (p_i = 1/N), summed by
    numpy's pairwise sum, whose bits do not depend on the BLAS thread count.
    A Lloyd run that reaches the iteration cap before its assignment settles
    emits a RuntimeWarning and keeps its last assignment.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if k > data.n:
        raise ValueError("k exceeds number of points")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    X = data.points
    x2 = data.sq_norms
    # seeding scores on the transposed copy below 8 coordinates; Lloyd
    # always sums its means on it
    XT = np.ascontiguousarray(X.T)
    scoring = XT if data.d <= _TRANSPOSED_MAX_D else None
    # the result arrays come before the distance matrix that every restart
    # reuses, so nothing made after the matrix outlives it; freed, it rejoins
    # the top of glibc's heap, and the next call's matrix takes the same
    # pages. A matrix left in a hole below a live array stays resident, and
    # the next, larger one adds a second N x k to the peak memory
    assignment, centroids = np.empty(data.n, dtype=np.intp), np.empty((k, data.d))
    d2 = np.empty((data.n, k))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(restarts)):
        rng = np.random.default_rng(child)
        centers = _kmeanspp_init(X, x2, scoring, k, rng)
        assign, centers, closest = _lloyd(X, x2, XT, centers, d2)
        distortion = float((data.weights * closest).sum())
        if r == 0 or distortion < best:
            best = distortion
            assignment[:] = assign
            centroids[:] = centers
    return ClusteringSolution(k=k, assignment=assignment, centroids=centroids, distortion=best)

def _components(linked: np.ndarray) -> list[np.ndarray]:
    """The connected components of the graph whose adjacency is the boolean
    matrix linked, each as its sorted point indices, in order of their
    lowest index. A breadth-first search, one frontier of rows at a time."""
    unseen = np.ones(len(linked), dtype=bool)
    comps = []
    while unseen.any():
        start = int(np.argmax(unseen))
        unseen[start] = False
        members, frontier = [start], [start]
        while frontier:
            reached = linked[frontier].any(axis=0) & unseen
            frontier = np.flatnonzero(reached).tolist()
            unseen[frontier] = False
            members += frontier
        comps.append(np.sort(members))
    return comps


def _laplacian(K: np.ndarray, s: np.ndarray) -> np.ndarray:
    """I - S K S with S = diag(s), symmetrized."""
    L = np.eye(len(s)) - s[:, None] * K * s[None, :]
    return (L + L.T) / 2.0


def _excluded(L: np.ndarray, null: np.ndarray, tau: float) -> bool:
    """True when every eigenvalue of the Laplacian block L but its least
    provably lies strictly above tau, also as eigh would compute it; null is
    the block's unit null vector.

    The test is one Cholesky factorization of
    A = L + null null^T - (tau + delta) I. When it completes, A plus a
    backward error of norm about n^2 eps ||A|| is positive definite (Higham,
    Accuracy and Stability of Numerical Algorithms, 10.1), so every
    eigenvalue of L + null null^T exceeds tau + delta less that error. By
    interlacing for a rank-one update, lambda_(i+1)(L) >= lambda_i(L +
    null null^T), so the same holds for every eigenvalue of L but its least.
    delta = 2 n^2 eps ||L + null null^T||_inf also covers the rounding in
    forming A and eigh's own error.
    """
    n = len(L)
    A = L + np.outer(null, null)
    delta = 2.0 * n * n * _EPS * float(np.abs(A).sum(axis=1).max())
    A.flat[:: n + 1] -= tau + delta
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False
    return True


def spectral_basis(K: np.ndarray, k_max: int) -> np.ndarray:
    """First k_max eigenvectors of the symmetric normalized Laplacian of K.

    Columns are ordered by ascending eigenvalue, so the Ng-Jordan-Weiss
    embedding at any k <= k_max is the first k columns. A persistence sweep
    computes this once and hands it to spectral_cluster at every k.

    The Laplacian is block diagonal over the m connected components of the
    graph K != 0 (taken symmetric). With m = 1 the basis is one dense eigh
    of the whole Laplacian. With m > 1 the first m columns are the null
    vectors in closed form, D_c^(1/2) 1_c / ||D_c^(1/2) 1_c|| for each
    component c in order of its lowest point index, zero outside c (the
    norm is taken as the square root of c's degree sum); the other columns
    are the components' eigenvectors of nonzero eigenvalue, merged by
    ascending eigenvalue with ties going to the lower component, and zero
    outside their component. With k_max <= m no eigh runs.

    Only the components that can reach the basis are eigendecomposed. They
    are visited in ascending mean degree, where the smallest eigenvalues
    tend to lie. Once the k_max - m lowest eigenvalues found so far have
    tau as the largest, a component is skipped when one Cholesky
    factorization certifies that all its eigenvalues but the null one lie
    above tau by more than rounding (see _excluded, with its margin delta);
    such a component could only have given columns that sort after the
    ones kept. The visiting order sets how many eigh calls run, never the
    basis, which is bitwise the one from decomposing every component.

    k_max must be an integer >= 1. K must be a square matrix of finite
    values whose rows have positive sums.
    """
    if isinstance(k_max, bool) or not isinstance(k_max, numbers.Integral) or k_max < 1:
        raise ValueError(f"k_max must be an integer >= 1, got {k_max!r}")
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"K must be a square matrix, got shape {K.shape}")
    deg = K.sum(axis=1)
    if not np.isfinite(deg).all():
        bad = "holds NaN or inf" if not np.isfinite(K).all() else "has row sums that overflow"
        raise ValueError(f"K {bad}")
    if np.any(deg <= 0):
        raise ValueError("isolated point")
    n = K.shape[0]
    s = 1.0 / np.sqrt(deg)
    comps = _components((K != 0) | (K.T != 0))
    if len(comps) == 1:
        # numpy's eigh serves as embedding infrastructure here; the
        # persistence eigenvalue paths use the solvers in linalg
        _, V = np.linalg.eigh(_laplacian(K, s))
        return V[:, :k_max].copy()
    basis = np.zeros((n, min(k_max, n)))
    for j, c in enumerate(comps[: basis.shape[1]]):
        basis[c, j] = np.sqrt(deg[c]) / math.sqrt(deg[c].sum())
    extra = basis.shape[1] - len(comps)
    if extra <= 0:
        return basis
    # the lowest `extra` eigenpairs above its null vector of each component
    # that can reach the basis, merged by (eigenvalue, component): ties to
    # the lower component
    found = []
    for j in sorted(range(len(comps)), key=lambda j: deg[comps[j]].mean()):
        c = comps[j]
        L, null = _laplacian(K[np.ix_(c, c)], s[c]), basis[c, j]
        if len(found) >= extra and _excluded(L, null, sorted(f[0] for f in found)[extra - 1]):
            continue
        w, V = np.linalg.eigh(L)
        # eigh's vectors are orthogonal to its own null vector, which differs
        # from the closed form by rounding over the spectral gap (6e-10 on
        # the rings of gate 4a); project the closed form out
        U = V[:, 1 : 1 + extra]
        U = U - np.outer(null, null @ U)
        U /= np.linalg.norm(U, axis=0)
        found += [(value, j, c, u) for value, u in zip(w[1 : 1 + extra].tolist(), U.T)]
    found.sort(key=lambda f: f[:2])
    for col, (_, _, c, u) in enumerate(found[:extra], start=len(comps)):
        basis[c, col] = u
    return basis


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
