"""Clustering solutions: k-means for linearly separable data, normalized
spectral clustering (Ng-Jordan-Weiss) for shape data.

k-means takes unweighted points and uses greedy k-means++ seeding, Lloyd
iterations to an assignment fixed point, deterministic tie-breaking (lowest
cluster index, lowest restart index), and empty-cluster repair that
reassigns the globally farthest point. Lloyd measures an N x k distance
matrix of at most one 256 KiB block whole on every pass, and there the
restarts of a call are seeded and iterated in batches whose matrices fill
at most one block together. Past that it makes no N x k array and runs one
restart at a time: Hamerly's triangle-inequality bounds, rounded outward
and widened by the rounding of a distance, certify the rows whose argmin
cannot move, and only the other rows are measured. Every output bit is
that of running the restarts one after another and measuring the whole
matrix on every pass.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset
from .linalg import _BLOCK_BYTES, _EPS, _TILE, _blocks, _sq_distances, _symmetrize

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


def _require_integer(name: str, value, minimum: float = -math.inf) -> None:
    """ValueError unless value is an integer (numbers.Integral, not bool) of
    at least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        floor = "" if minimum == -math.inf else f" >= {minimum}"
        raise ValueError(f"{name} must be an integer{floor}, got {value!r}")


# numpy sums a row of fewer than 8 values left to right, which is also the
# order in which adding the rows of the transposed copy sums each column;
# from 8 values on it sums a row pairwise in blocks of 8, the two orders
# differ in the last bit, and a one-ulp change in the D^2 distribution can
# change a k-means++ draw
_TRANSPOSED_MAX_D = 7


def _sample_d2(
    d2: np.ndarray, total: np.ndarray, trials: int, rngs: list, cdf: np.ndarray
) -> np.ndarray:
    """Row b of the (B, trials) result holds the candidates of row b of the
    (B, N) block d2: rngs[b].choice(N, size=trials, p=d2[b] / total[b]),
    step for step, the same indices and the generator left in the same
    state, without choice's checks on p, which cost more than the draw. A
    row whose total is 0 takes one rngs[b].integers(N) draw instead, in
    each of its slots. cdf is a scratch array of d2's shape. The divisions
    and the running sums go over the whole block in one pass each;
    add.accumulate, which is cumsum without its wrapper, adds each row left
    to right.
    """
    # a row of total 0 is 0 / 0, and never searched
    with np.errstate(invalid="ignore"):
        np.divide(d2, total[:, None], out=cdf)
        np.add.accumulate(cdf, axis=1, out=cdf)
        # a copy, as numpy buffers a whole division whose divisor overlaps out
        np.divide(cdf, cdf[:, -1:].copy(), out=cdf)
    cand = np.empty((len(d2), trials), dtype=np.intp)
    for row, rng, t, out in zip(cdf, rngs, total.tolist(), cand):
        if t > 0:
            out[:] = row.searchsorted(rng.random(trials), side="right")
        else:
            out[:] = rng.integers(len(row))
    return cand


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
    X: np.ndarray, x2: np.ndarray, XT: Optional[np.ndarray], k: int, rngs: list
) -> np.ndarray:
    """Greedy k-means++, one run per generator of rngs: sample candidates
    by the D^2 distribution, keep the one that lowers the potential most;
    XT is as in _score_candidates. Returns the (B, k, d) stack of the B
    runs' centers, each bitwise that of seeding its run alone.

    Each run's first distances are one N x 1 product, since an N x B
    product could round otherwise. Every later step works on the (B, N)
    block of the runs' distances at once: one sampling pass, one scoring
    call for all B trials candidates, and row sums, each row bitwise the
    1-d sum. Each generator draws as it would alone."""
    n, runs = X.shape[0], len(rngs)
    trials = 2 + int(math.log(k)) if k > 1 else 1
    # the point index of each center
    chosen = np.empty((runs, k), dtype=np.intp)
    d2 = np.empty((runs, n))
    for c, row, rng in zip(chosen, d2, rngs):
        c[0] = rng.integers(n)
        row[:] = _sq_distances(X, x2, X[c[:1]])[:, 0]
    cdf, scores = np.empty((runs, n)), np.empty((runs * trials, n))
    diff = np.empty(X.shape if XT is None else scores.shape)
    # the row of each run's first candidate in the (B trials, N) scores
    total, first = d2.sum(axis=1), np.arange(0, runs * trials, trials)
    for j in range(1, k):
        for value in total.tolist():
            if not math.isfinite(value):
                raise ValueError(
                    f"k-means++: the squared distances of the points overflow (their sum "
                    f"is {value}); rescale the data"
                )
        cand = _sample_d2(d2, total, trials, rngs, cdf).reshape(-1)
        alt = _score_candidates(X, XT, cand, scores, diff)
        by_run = alt.reshape(runs, trials, n)
        np.minimum(d2[:, None], by_run, out=by_run)
        # the first candidate with the lowest potential wins; its potential
        # is the pairwise sum of its row, bitwise the next d2.sum(); a row
        # that drew one candidate in every slot picks it
        potentials = np.add.reduce(alt, axis=1)
        best = potentials.reshape(runs, trials).argmin(axis=1) + first
        chosen[:, j] = cand[best]
        for row, b in zip(d2, best.tolist()):
            row[:] = alt[b]
        total = potentials[best]
    return X[chosen]


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

    assign may also hold the labels of B runs one after another, those of
    run b offset by b k, with counts and out over the B k clusters: each
    run's points are then taken in their order again, and every mean keeps
    its bits.
    """
    n, runs = XT.shape[1], len(assign) // XT.shape[1]
    clusters = clusters[counts[clusters] > 0]
    if len(XT) > 1:
        sums = np.empty((len(XT), len(counts)))
        tiled = np.empty((runs, n)) if runs > 1 else None
        for row, coord in zip(sums, XT):
            if runs > 1:
                tiled[:] = coord
                coord = tiled.reshape(-1)
            row[:] = np.bincount(assign, weights=coord, minlength=len(counts))
        out[clusters] = sums[:, clusters].T / counts[clusters, None]
        return out
    # a stable sort of 16-bit keys is a radix sort
    keys = assign.astype(np.int16) if counts.size < 2**15 else assign
    Xs = XT.T[np.argsort(keys, kind="stable") % n]
    starts = np.cumsum(counts) - counts
    for j, lo, size in zip(clusters.tolist(), starts[clusters].tolist(), counts[clusters].tolist()):
        out[j] = Xs[lo : lo + size].mean(axis=0)
    return out


# A floor under every drift bound and, squared, under the rounding bound of
# the distances: it covers the absolute errors of gradual underflow
_FLOOR = 2.0**-480
# Scaling a result of at most three rounded operations by these rounds it
# outward: above, or below, the exact value it stands for
_OUT, _IN = 1.0 + 2.0 * _EPS, 1.0 - 2.0 * _EPS


def _rounding_bound(x2max: float, C: np.ndarray) -> float:
    """A bound E on |D - ||x - c||^2| for every entry D of
    _sq_distances(X, x2, C), in exact arithmetic; x2max is the largest x2.

    With u = eps / 2, a dot product of d terms errs by at most
    d u sum |x_i c_i| <= d u ||x|| ||c|| (to first order in u), in any
    order of summation, with or without fused multiply-adds, whatever the
    BLAS kernel; so do the squared norms x2 and ||c||^2. The sum
    x2 + ||c||^2 rounds once, by at most u (||x||^2 + ||c||^2), the last
    subtraction once, by at most u times its result, which is below
    2 (||x||^2 + ||c||^2), and clipping at 0 only brings an entry nearer to
    the exact value, which is >= 0. In all an entry errs by at most
    (d + 3/2) eps (||x||^2 + ||c||^2) to first order, and with the
    second-order terms and this function's own rounding it stays below
    (d + 2) eps (max x2 + max ||c||^2) for d below 10^7. Gradual underflow
    adds at most a few d 2^-1074, which the floor 2^-960 in the sum covers;
    it also keeps E a normal number.
    """
    return (C.shape[1] + 2) * _EPS * (x2max + float((C * C).sum(axis=1).max()) + _FLOOR**2)


def _drift(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Upper bounds on the exact distances between the rows of new and old.

    The computed norm n of a d-vector of rounded differences is the square
    root of a sum of d rounded squares, so the exact norm is at most
    n (1 + (d + 4) eps), less than that where squares underflow: they lose
    at most d 2^-1074 in all, and so the norm at most sqrt(d) 2^-537, which
    the floor 2^-480 covers for any d below 2^114. The factor
    1 + (d + 6) eps also covers the two roundings of (n + floor) * factor.
    """
    norm = np.sqrt(((new - old) ** 2).sum(axis=1))
    return (norm + _FLOOR) * (1.0 + (new.shape[1] + 6) * _EPS)


def _gemm_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """The sorted indices rows, the first repeated in front where needed, so
    that one product over those rows of the N = n points gives each row the
    bits it has in the product over all n.

    OpenBLAS gives an entry the same bits in any call of two or more rows
    and two or more columns, except that its Haswell kernels, from eight
    coordinates on, round the last row of an odd number of rows otherwise;
    in the whole product that is row n - 1 when n is odd. So the count is
    made even, or odd and at least 3 where rows ends at that row.
    """
    odd = len(rows) > 0 and rows[-1] == n - 1 and n % 2 == 1
    if len(rows) % 2 != odd:
        rows = np.concatenate([rows[:1], rows])
    return np.repeat(rows, 3) if len(rows) == 1 else rows


class _Bounds:
    """Hamerly bounds (Hamerly, SDM 2010) over the N x k distance matrix of
    a Lloyd run, k >= 2, which certify that a point's row still has its
    argmin where it had it, so that only the other rows are measured.

    Each point keeps nearest, the argmin column of its row when the row was
    last measured; closest, that row's entry there; an upper bound upper on
    its exact distance to that center; and a lower bound lower on its exact
    distance to every other center. When the centers move, upper grows by
    the drift of its center and lower falls by the largest drift of the
    others (the triangle inequality).

    Every bound holds in exact arithmetic, and so do both sides of the
    test below: each is scaled by _OUT (upper side) or _IN (lower side)
    after at most three rounded operations of relative error eps / 2 each.
    Those stay in the normal range or are exact: a sum or a difference
    whose result underflows is exact, an upper bound stays above sqrt(E), a
    normal number, and a lower bound whose square underflows cannot settle
    a point. A lower bound that falls to 0 or below stays there until its
    row is measured again.

    A point is settled when lower > 0 and upper^2 + 2E < lower^2, with E
    the _rounding_bound of the current centers. The entry of its row at
    nearest is then at most upper^2 + E, and every other entry at least
    lower^2 - E > upper^2 + E: nearest is the strict argmin of the row
    that _sq_distances computes, whatever the call, so the argmin of the
    whole matrix; an exact tie is never settled. The row of a point that is
    not settled is measured, against every center, through one scratch
    block of _BLOCK_BYTES, in blocks of an even number of rows but for a
    last block that ends at row N - 1 when N is odd (see _gemm_rows; gemv,
    for one row or column, rounds otherwise too), so these rows are bitwise
    rows of the whole matrix.
    """

    def __init__(self, X: np.ndarray, x2: np.ndarray, centers: np.ndarray):
        n, k = len(X), len(centers)
        self.X, self.x2, self.x2max = X, x2, float(x2.max())
        # an even number of rows, and room for the three rows of a last
        # block that reaches back (see _measure)
        self.block = np.empty((max(4, _BLOCK_BYTES // (16 * k) * 2), k))
        self.nearest, self.closest = np.empty(n, dtype=np.intp), np.empty(n)
        self.upper, self.lower = np.empty(n), np.empty(n)
        # the update in which each row was last measured and each center moved
        self.updates = 0
        self.measured, self.moved = np.zeros(n, dtype=np.intp), np.zeros(k, dtype=np.intp)
        self._measure(centers, _rounding_bound(self.x2max, centers))

    def _measure(self, centers: np.ndarray, E: float, rows: Optional[np.ndarray] = None):
        """Measure the rows listed in rows, or every row, and start their
        bounds afresh."""
        n = len(self.X)
        rows = None if rows is None else _gemm_rows(rows, n)
        m = n if rows is None else len(rows)
        nearest, first, second = np.empty(m, dtype=np.intp), np.empty(m), np.empty(m)
        for lo in range(0, m, len(self.block)):
            hi = min(lo + len(self.block), m)
            # the odd row n - 1 left alone would go through gemv, so the
            # last block reaches back two rows
            lo = lo - 2 if hi - lo == 1 else lo
            part = slice(lo, hi) if rows is None else rows[lo:hi]
            D = _sq_distances(self.X[part], self.x2[part], centers, out=self.block[: hi - lo])
            # argmin along rows of k values runs about three times faster
            # than min; offsets holds the flat index of each row's start
            nearest[lo:hi] = a = D.argmin(axis=1)
            flat, offsets = D.reshape(-1), np.arange(0, D.size, D.shape[1])
            first[lo:hi] = flat[a + offsets]
            flat[a + offsets] = np.inf
            second[lo:hi] = flat[D.argmin(axis=1) + offsets]
        rows = slice(None) if rows is None else rows
        self.nearest[rows], self.closest[rows] = nearest, first
        self.upper[rows] = np.sqrt(first + E) * _OUT
        self.lower[rows] = np.sqrt(np.maximum(second - E, 0.0)) * _IN
        self.measured[rows] = self.updates

    def update(self, centers: np.ndarray, touched: np.ndarray, old: np.ndarray) -> np.ndarray:
        """Move the bounds after the centers listed in touched moved from the
        rows old, measure the rows not settled, and return a copy of nearest."""
        self.updates += 1
        self.moved[touched] = self.updates
        drift = np.zeros(len(centers))
        drift[touched] = _drift(centers[touched], old)
        # the largest drift of the centers other than each one
        top = int(np.argmax(drift))
        others = np.full(len(drift), drift[top])
        others[top] = np.delete(drift, top).max()
        upper = np.add(self.upper, drift[self.nearest], out=self.upper)
        upper *= _OUT
        lower = np.subtract(self.lower, others[self.nearest], out=self.lower)
        lower *= _IN
        E = _rounding_bound(self.x2max, centers)
        reach = upper * upper
        reach += 2.0 * E
        reach *= _OUT
        gap = lower * lower
        gap *= _IN
        settled = reach < gap
        settled &= lower > 0
        self._measure(centers, E, np.flatnonzero(~settled))
        return self.nearest.copy()

    def distances(self, centers: np.ndarray) -> np.ndarray:
        """Each point's entry of the whole matrix against centers at its
        nearest column: closest, or where that center moved after the row
        was measured, column 0 of one _sq_distances call per cluster, by
        that center twice and the rows _gemm_rows gives (see there)."""
        stale = np.flatnonzero(self.moved[self.nearest] > self.measured)
        if len(stale) == 0:
            return self.closest
        stale = stale[np.argsort(self.nearest[stale], kind="stable")]
        labels = self.nearest[stale]
        cuts = (np.flatnonzero(np.diff(labels)) + 1).tolist()
        for lo, hi in zip([0, *cuts], [*cuts, len(stale)]):
            j, rows = labels[lo], _gemm_rows(stale[lo:hi], len(self.X))
            D = _sq_distances(self.X[rows], self.x2[rows], centers[[j, j]])
            self.closest[stale[lo:hi]] = D[len(rows) - (hi - lo) :, 0]
        return self.closest


def _lloyd(
    X: np.ndarray, x2: np.ndarray, XT: np.ndarray, centers: np.ndarray, D: Optional[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd iterations of B runs, from each center set of the (B, k, d)
    stack centers to an assignment fixed point; XT is the C-contiguous
    (d, N) copy of X. D is a scratch stack of at least B N x k matrices
    when k = 1 or B matrices fit in one block of _BLOCK_BYTES, and None
    otherwise, with B = 1.

    Returns, for each run, the assignment, the centers, each the mean of
    its members, and each point's squared distance to its nearest center,
    stacked in arrays of B rows. A run settles when the assignment after
    any empty-cluster repair equals the one before, and returns the centers
    it was measured against. Every distance, argmin and center is bitwise
    that of measuring the run's whole N x k matrix in one _sq_distances
    call on every pass.

    With D every pass does just that for the runs not yet settled, in one
    stacked call in place in D, whose slices get the gemm call of each run
    alone; counts and member sums come from bincounts over labels offset
    by run. A run leaves the batch when it settles or stops. Without D the
    one run keeps _Bounds: an update gives a new mean only to the clusters
    that a point entered or left, any other kept its members and so its
    mean, bit for bit, and only the rows that the bounds cannot settle are
    measured.

    A run stops early, with a RuntimeWarning, when an assignment equals the
    one two passes before: each assignment fixes the next, so the run would
    cycle until the cap. A run that stops early or at the cap returns its
    last assignment, its means and each point's distance to its nearest
    latest center. The warnings come in run order once every run has ended.
    """
    runs, k, d = centers.shape
    n = len(X)
    assigns, closest = np.empty((runs, n), dtype=np.intp), np.empty((runs, n))
    means = np.empty_like(centers)
    stops = [None] * runs
    # the runs still iterating and their centers; labels offset by
    # offsets[i] number run i's clusters after those of the runs before it
    active, centers, offsets = np.arange(runs), centers.copy(), np.arange(0, runs * k, k)[:, None]

    def leave(i, stop):
        """Keep the result of run i of the batch as it now stands."""
        r = active[i]
        assigns[r], means[r], stops[r] = assign[i], centers[i], stop
        closest[r] = bounds.distances(centers[0]) if D is None else D[i][np.arange(n), nearest[i]]

    if D is None:
        bounds = _Bounds(X, x2, centers[0])
        nearest = bounds.nearest[None].copy()
    else:
        nearest = _sq_distances(X, x2, centers, out=D[:runs]).argmin(axis=2)
    before = assign = np.full((runs, n), -1)
    for _ in range(_LLOYD_CAP):
        new = nearest
        counts = np.bincount((new + offsets).reshape(-1), minlength=offsets.size * k).reshape(-1, k)
        if not counts.all():
            new = nearest.copy()
            for i in np.flatnonzero(~counts.all(axis=1)):
                repaired = _cluster_means(XT, new[i], counts[i], np.arange(k), np.zeros((k, d)))
                _repair_empty(X, new[i], repaired, counts[i])
        moved = new != assign
        settled = ~moved.any(axis=1)
        cycled = (new == before).all(axis=1) & ~settled
        ended = settled | cycled
        if ended.any():
            for i in np.flatnonzero(ended).tolist():
                leave(i, "in a cycle of two assignments" if cycled[i] else None)
            if ended.all():
                break
            keep = ~ended
            active, centers, nearest, new, assign, counts, moved = (
                a[keep] for a in (active, centers, nearest, new, assign, counts, moved)
            )
            offsets = offsets[: len(active)]
        before, assign = assign, new
        if D is None:
            # a moved point left one cluster and entered another; the label
            # -1 of the first pass is no cluster
            touched = np.union1d(before[0][moved[0]], assign[0][moved[0]])
            touched = touched[touched >= 0]
            old = centers[0][touched]
            _cluster_means(XT, assign[0], counts[0], touched, centers[0])
            nearest = bounds.update(centers[0], touched, old)[None]
        else:
            labels, flat = (assign + offsets).reshape(-1), centers.reshape(-1, d)
            _cluster_means(XT, labels, counts.reshape(-1), np.arange(len(flat)), flat)
            nearest = _sq_distances(X, x2, centers, out=D[: len(active)]).argmin(axis=2)
    else:
        for i in range(len(active)):
            leave(i, f"at the cap of {_LLOYD_CAP}")
    for stop in filter(None, stops):
        warnings.warn(
            f"k={k}: Lloyd iterations stopped {stop} before the assignment settled",
            RuntimeWarning,
            stacklevel=2,
        )
    return assigns, means, closest


def kmeans(data: Dataset, k: int, restarts: int = 10, seed: int = 0) -> ClusteringSolution:
    """Best of `restarts` k-means++ runs, deterministic given seed.

    Ties in nearest-centroid go to the lowest cluster index; ties across
    restarts go to the lowest restart index. The distortion is the mean
    squared distance of each point to its centroid (p_i = 1/N), summed by
    numpy's pairwise sum, whose bits do not depend on the BLAS thread count.
    A Lloyd run that reaches the iteration cap before its assignment settles
    emits a RuntimeWarning and keeps its last assignment. At k = 1 every
    restart gives the one cluster of all points, its mean and the same
    distortion, so only the first runs.

    Where the N x k distance matrix fits in _BLOCK_BYTES, and at k = 1 (one
    column), Lloyd measures it whole on every pass. There the restarts run
    in batches of as many as fit their matrices in one block, at least
    one: each batch is seeded and iterated together, into one scratch stack
    that every batch reuses, and every result is bitwise that of running
    the restarts one after another. A larger matrix is never made: each
    restart runs alone, and Lloyd keeps Hamerly bounds and measures only
    the rows they cannot settle. k and restarts must be integers, and seed
    an integer >= 0.
    """
    _require_integer("k", k)
    _require_integer("restarts", restarts)
    _require_integer("seed", seed, 0)
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
    assignment, centroids = np.empty(data.n, dtype=np.intp), np.empty((k, data.d))
    children = np.random.SeedSequence(seed).spawn(1 if k == 1 else restarts)
    # restarts per batch: as many N x k matrices as fill one block, at least
    # one, so 1 past one block, where Lloyd keeps bounds and no matrix. The
    # stack D lives for this call only: no N x k matrix is left resident
    # between calls, in a glibc heap hole or elsewhere
    batch = min(len(children), max(1, _BLOCK_BYTES // (8 * data.n * k)))
    D = np.empty((batch, data.n, k)) if k == 1 or 8 * data.n * k <= _BLOCK_BYTES else None
    for lo in range(0, len(children), batch):
        rngs = [np.random.default_rng(child) for child in children[lo : lo + batch]]
        assigns, means, closest = _lloyd(X, x2, XT, _kmeanspp_init(X, x2, scoring, k, rngs), D)
        # each row's pairwise sum, as of the row alone
        for r, distortion in enumerate((data.weights * closest).sum(axis=1).tolist(), start=lo):
            if r == 0 or distortion < best:
                best = distortion
                assignment[:] = assigns[r - lo]
                centroids[:] = means[r - lo]
        # the next batch is seeded without this one's results
        del assigns, means, closest
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


def _support(K: np.ndarray) -> np.ndarray:
    """The boolean matrix (K != 0) | (K.T != 0), built one _TILE square and
    its mirror image at a time, so that no N x N temporary beside it is made."""
    linked = np.empty(K.shape, dtype=bool)
    bands = _blocks(len(K), _TILE)
    for i, r in enumerate(bands):
        for c in bands[i:]:
            tile = K[r, c] != 0
            tile |= K[c, r].T != 0
            linked[r, c] = tile
            linked[c, r] = tile.T
    return linked


def _laplacian(B: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(L + L.T) / 2 for L = I - S B S with S = diag(s), bitwise, built in
    place in B, a copy of a kernel block: the product, then the negation
    as 0.0 - x, which keeps +0.0 where I - S B S has it, then 1.0 on the
    diagonal, (0.0 - x) + 1.0 being 1.0 - x, then the tiled symmetrize."""
    B *= s[:, None]
    B *= s[None, :]
    np.subtract(0.0, B, out=B)
    B.flat[:: len(B) + 1] += 1.0
    return _symmetrize(B)


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
    _require_integer("k_max", k_max, 1)
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
    comps = _components(_support(K))
    if len(comps) == 1:
        # numpy's eigh serves as embedding infrastructure here; the
        # persistence eigenvalue paths use the solvers in linalg
        _, V = np.linalg.eigh(_laplacian(K.copy(), s))
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
    distortion refer to the embedding space. k must be an integer, and
    seed an integer >= 0.
    """
    _require_integer("k", k)
    _require_integer("seed", seed, 0)
    if not 1 <= k <= basis.shape[1]:
        raise ValueError(f"k must lie in 1..{basis.shape[1]}, the columns of the basis")
    U = basis[:, :k]
    norms = np.linalg.norm(U, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    U = U / norms
    return kmeans(Dataset(U), k, restarts=restarts, seed=seed)
