"""Critical resolutions, persistence values v(k), and the estimate k_t.

The critical resolution of a k-cluster solution is
beta_bar_k = 1 / (2 max_j lambda_max(S_j)) with S_j the unnormalized scatter
of cluster j about its centroid, the mean of its members (kernelized via the
doubly centered Gram block when clustering shapes), so each block depends on
the member set alone. The persistence of the k-cluster solution is
v(k) = log beta_bar_k - log beta_bar_{k-1} and the estimated true number of
clusters is the argmax of v, ties going to the smaller k.
"""
from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

import numpy as np

from .clustering import ClusteringSolution, kmeans, spectral_basis, spectral_cluster
from .dataset import Dataset, _csv_text, _require_integer
from .linalg import _TILE, _center_kernel_block, _kernel_denominator
from .linalg import gaussian_kernel, kernel_scatter_matrix, largest_eigenvalue, scatter_matrix

__all__ = [
    "CriticalBeta",
    "PersistenceProfile",
    "critical_beta",
    "critical_beta_kernel",
    "persistence_profile",
]


class CriticalBeta(NamedTuple):
    """The resolution at which a solution stops being a free-energy minimum,
    plus the index of the widest cluster (the one that splits first)."""

    beta: float
    cluster: int


# The N x N float64 arrays a kernel sweep holds at once, in its worst phase.
# gaussian_kernel holds K and one row block; spectral_basis holds K, the
# Laplacian, built in place in one copy of K, and its eigenvectors for a
# connected graph, the worst case, or K and per-component blocks for a
# disconnected one; the critical-beta loop holds K, one block of more than
# one tile and the blocks of at most one tile of one k >= 2, and at k = 1 K
# alone, centered in place. Measured by tracemalloc beside K (1350 points):
# the three rings hold at most 0.49 K more, at k = 2, and the connected
# spirals 2.00 K more in spectral_basis. eigh's workspace comes on top, so
# the guard rejects only sweeps that cannot fit.
_KERNEL_DENSE_ARRAYS = 3


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_kernel_memory(n: int) -> None:
    need = _KERNEL_DENSE_ARRAYS * n * n * np.dtype(float).itemsize
    have = _physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"kernel mode with N={n} needs at least {need} bytes for its dense "
            f"N x N arrays, more than the {have} bytes of physical memory"
        )


# A block is skipped only when its Frobenius bound, raised by this relative
# slack, is still below the largest eigenvalue known at its k
_SKIP_SLACK = 1e-6


def _frobenius_bound(M: np.ndarray) -> float:
    """||M||_F, an upper bound on the spectral radius of a symmetric M.

    It is taken of M scaled by its largest magnitude m, so that no scale of
    M overflows or underflows. A NaN anywhere in M makes m, and so the
    bound, NaN; an inf makes it NaN too.
    """
    m = float(np.maximum(M.max(), -M.min()))
    if m == 0.0:
        return 0.0
    return m * float(np.linalg.norm(M / m))


def _critical_beta(solution: ClusteringSolution, n: int, build, cache) -> CriticalBeta:
    """The critical-resolution loop shared by both scatter kinds.

    A cluster block is a function of its member indices m alone: build(m)
    makes the matrix, and cache, if given, maps m.tobytes() to top
    eigenvalues already solved, so a hit reuses one. A solution that does
    not assign the n points that build indexes raises ValueError first.

    Only the largest top eigenvalue, and the first cluster that has it,
    reach the result. A block of more than _TILE rows is solved as soon as
    it is built, and so released before the next one is built. Smaller
    blocks are held and solved widest first by their Frobenius norm b, a
    bound on the spectral radius rho, and one is skipped when
    b * (1 + _SKIP_SLACK) is below the largest eigenvalue already known at
    this k. The solver's value, a Jacobi diagonal or a Lanczos Rayleigh
    quotient, exceeds the lambda_max of an n x n matrix, and the computed b
    falls short of rho, by rounding alone: a small multiple of
    n*n*eps < 1e-11 relative to rho for n <= _TILE, far below the slack. So
    a skipped block's solver value would have been strictly below the kept
    maximum, and the result is bitwise the one from solving every block. A
    block with a non-finite bound fails the comparison and is solved.
    Skipped blocks are not cached.
    """
    if len(solution.assignment) != n:
        raise ValueError(f"solution assigns {len(solution.assignment)} points, not the data's {n}")
    cache = {} if cache is None else cache
    lmax = np.zeros(solution.k)
    held = []
    for j in range(solution.k):
        members = solution.members(j)
        if members.size <= 1:
            continue
        block = members.tobytes()
        if block not in cache:
            M = build(members)
            if len(M) <= _TILE:
                held.append((_frobenius_bound(M), j, block, M))
                continue
            cache[block], _ = largest_eigenvalue(M)
            del M  # before the next block is built
        lmax[j] = cache[block]
    best = lmax.max()
    for bound, j, block, M in sorted(held, key=lambda u: u[0], reverse=True):
        if best > 0.0 and bound * (1.0 + _SKIP_SLACK) < best:
            continue
        cache[block], _ = largest_eigenvalue(M)
        lmax[j] = cache[block]
        best = max(best, lmax[j])
    top = float(lmax.max())
    if top <= 0.0:
        raise ValueError("resolution unbounded; reduce k_max")
    return CriticalBeta(beta=1.0 / (2.0 * top), cluster=int(np.argmax(lmax)))


def critical_beta(
    solution: ClusteringSolution, data: Dataset, cache: Optional[dict] = None
) -> CriticalBeta:
    """Critical resolution of a feature-space solution via scatter spectra.

    Singleton clusters have zero scatter and simply lose the max; if every
    cluster has zero spectrum the resolution is unbounded and an error is
    raised, as it is when the solution does not assign data.n points. Each
    scatter is taken about its member mean, so solution.centroids is not
    read. cache, when given, is a dict owned by one sweep over data; blocks
    are keyed by member set, so a cluster that recurs with the same members
    is solved once. A scatter whose Frobenius norm, a bound on its spectral
    radius, is below the largest eigenvalue already known is not solved;
    the result is bitwise the same (see _critical_beta).
    """
    return _critical_beta(solution, data.n, lambda m: scatter_matrix(data, m), cache)


def critical_beta_kernel(
    solution: ClusteringSolution, K: np.ndarray, cache: Optional[dict] = None
) -> CriticalBeta:
    """Critical resolution with cluster scatters taken in kernel feature space.

    cache, when given, is a dict owned by one sweep over K; blocks are keyed
    by member set, so a cluster that recurs across k is solved once. As in
    critical_beta, a block that provably cannot hold the largest eigenvalue
    is not solved, with a bitwise equal result, and a solution that does not
    assign the len(K) points raises ValueError.
    """
    return _critical_beta(solution, len(K), lambda m: kernel_scatter_matrix(K, m), cache)


@dataclass
class PersistenceProfile:
    """Per-k critical resolutions, persistence values, and the argmax k_t.

    beta_bar maps k -> beta_bar_k for k = k_min-1 .. k_max (k_min defaults
    to 1, so normally 1..k_max); v maps k -> v(k) for k = max(2, k_min) ..
    k_max. critical_cluster records which cluster attained the max
    eigenvalue at each k. per_k_solutions maps each swept k to its
    clustering solution.
    """

    k_max: int
    k_min: int
    beta_bar: Dict[int, float]
    v: Dict[int, float]
    k_t: int
    critical_cluster: Dict[int, int] = field(default_factory=dict)
    per_k_solutions: Dict[int, ClusteringSolution] = field(default_factory=dict)

    def to_csv(self) -> str:
        """Rows k, beta_bar, log_beta_bar, v (v blank on the first row)."""
        rows = [["k", "beta_bar", "log_beta_bar", "v"]]
        for k in sorted(self.beta_bar):
            b = self.beta_bar[k]
            vk = self.v.get(k)
            rows.append([k, repr(b), repr(math.log(b)), "" if vk is None else repr(vk)])
        return _csv_text(rows)

    def to_json_dict(self) -> dict:
        return {
            "k_min": self.k_min,
            "k_max": self.k_max,
            "k_t": self.k_t,
            "beta_bar": {str(k): v for k, v in sorted(self.beta_bar.items())},
            "v": {str(k): v for k, v in sorted(self.v.items())},
            "critical_cluster": {str(k): v for k, v in sorted(self.critical_cluster.items())},
        }


@contextlib.contextmanager
def _failing_at(k: int):
    """Prefix a ValueError or RuntimeError raised inside with its k."""
    try:
        yield
    except (ValueError, RuntimeError) as e:
        raise type(e)(f"k={k}: {e}") from e


def _check_sweep(k_max, k_min, mode, restarts, seed, sigma) -> None:
    """ValueError for the first of persistence_profile's rules that need no
    data that its arguments break; each message but mode's begins with the
    parameter's name."""
    for name, value in (("k_max", k_max), ("k_min", k_min), ("restarts", restarts)):
        _require_integer(name, value)
    _require_integer("seed", seed, 0)
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if not 1 <= k_min <= k_max - 1:
        raise ValueError("k_min must lie in 1..k_max-1")
    if mode not in ("linear", "kernel"):
        raise ValueError(f"unknown mode {mode!r}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    if mode == "kernel":
        if sigma is None:
            raise ValueError("sigma is required in kernel mode; pass a positive sigma")
        _kernel_denominator(sigma)


def persistence_profile(
    data: Dataset,
    k_max: int,
    mode: str = "linear",
    restarts: int = 10,
    seed: int = 0,
    sigma: Optional[float] = None,
    k_min: int = 1,
) -> PersistenceProfile:
    """Run the clustering sweep k = k_min-1 .. k_max and assemble v(k), k_t.

    mode "linear" clusters with kmeans and uses feature-space scatters; mode
    "kernel" requires sigma, clusters spectrally on the Gaussian similarity
    matrix and uses kernel-space scatters. Every randomized step derives from
    seed, one child stream per k. k_min > 1 restricts both the computed
    solutions and the argmax range (used for wide scans around a known k).

    Work that does not depend on k is done once per sweep: in kernel mode the
    similarity matrix and the Laplacian basis (see spectral_basis), whose
    first k columns embed the points at every k; the clusterer and the
    critical-beta function of the mode are chosen there once. A cluster
    block is a function of its members, so one that recurs across k (same
    members) has its top eigenvalue solved once, from a cache that lives
    only for this call, and a block of at most one tile whose Frobenius norm
    is below the largest eigenvalue known at its k is not solved (see
    _critical_beta). In kernel mode the k = 1 block, that of every point, is
    solved last, on K itself centered in place, so no second N x N copy is
    made.
    The output is the same as clustering and solving every k, and every
    block, from scratch, in ascending k.

    The points are unweighted (p_i = 1/N), as in the paper's scatters.
    Bad arguments raise ValueError before any clustering or kernel work
    starts: first those that break a rule of _check_sweep, then a k_max
    above N - 1, then, in kernel mode, N x N matrices that would not fit in
    physical memory.
    """
    _check_sweep(k_max, k_min, mode, restarts, seed, sigma)
    if k_max > data.n - 1:
        raise ValueError("k_max must be at most N-1")
    # the clusterer and what it clusters, the critical beta and the source
    # of its blocks, and the k whose block is solved after every other
    cluster, points, solve, blocks, last = kmeans, data, critical_beta, data, None
    if mode == "kernel":
        _check_kernel_memory(data.n)
        K = gaussian_kernel(data, sigma)
        basis = spectral_basis(K, k_max)
        cluster, points, solve, blocks, last = spectral_cluster, basis, critical_beta_kernel, K, 1

    # top eigenvalues of the cluster blocks solved so far in this sweep
    cache: dict = {}
    sols: Dict[int, ClusteringSolution] = {}
    cbs: Dict[int, CriticalBeta] = {}
    failure = None
    try:
        for k in range(max(1, k_min - 1), k_max + 1):
            child = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
            with _failing_at(k):
                sols[k] = cluster(points, k, restarts=restarts, seed=child)
                if k != last:
                    cbs[k] = solve(sols[k], blocks, cache)
    except (ValueError, RuntimeError) as e:
        failure = e
    # The one kernel cluster at k = 1 holds every point in order, so its
    # block is K itself: it is centered in place, the sweep's last use of K,
    # with the bits of the gathered copy. It is solved also when a later k
    # has failed, as a failure at k = 1 is reported first.
    if last in sols:
        with _failing_at(last):
            cbs[last] = _critical_beta(sols[last], len(K), lambda m: _center_kernel_block(K), cache)
    if failure is not None:
        raise failure
    beta_bar = {k: cbs[k].beta for k in sols}
    ks = range(max(2, k_min), k_max + 1)
    v = {k: math.log(beta_bar[k]) - math.log(beta_bar[k - 1]) for k in ks}
    return PersistenceProfile(
        k_max=k_max,
        k_min=k_min,
        beta_bar=beta_bar,
        v=v,
        k_t=max(v, key=v.get),
        critical_cluster={k: cbs[k].cluster for k in sols},
        per_k_solutions=sols,
    )
