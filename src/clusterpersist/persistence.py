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
import csv
import io
import math
import os
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

import numpy as np

from .clustering import _require_integer
from .clustering import ClusteringSolution, kmeans, spectral_basis, spectral_cluster
from .dataset import Dataset
from .linalg import _block_rows, _blocks, _center_kernel_block, _kernel_denominator
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
# disconnected one; the critical-beta loop holds K and the cluster blocks of
# one k >= 2, whose squared sizes sum to at most N^2, and at k = 1 K alone,
# centered in place. Measured by tracemalloc beside K (1350 points): the
# three rings hold at most 0.61 K more, at k = 2, and the connected spirals
# 2.00 K more in spectral_basis. eigh's workspace comes on top, so the guard
# rejects only sweeps that cannot fit.
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
# slack, is still below the largest eigenvalue known at its k; and only when
# n*n*eps, the scale of the rounding in both the bound and the solver, is at
# most a hundredth of the slack, which holds up to order 6710
_SKIP_SLACK = 1e-6
_SKIP_MAX_ORDER = math.isqrt(int(1e-2 * _SKIP_SLACK / np.finfo(float).eps))


def _frobenius_bound(M: np.ndarray) -> float:
    """||M||_F, an upper bound on the spectral radius of a symmetric M.

    It is taken of M scaled by its largest magnitude m, so that no scale of
    M overflows or underflows. The squares of M / m are summed one row block
    at a time, each block by one dot product: a matrix of one block gets the
    bits of m * np.linalg.norm(M / m), and over several blocks the sum
    rounds within the n*n*eps that _critical_beta allows for. A NaN anywhere
    in M makes m, and so the bound, NaN; an inf makes it NaN too.
    """
    m = float(np.maximum(M.max(), -M.min()))
    if m == 0.0:
        return 0.0
    total = 0.0
    for r in _blocks(len(M), _block_rows(M.shape[1])):
        x = (M[r] / m).ravel(order="K")
        total += float(x.dot(x))
    return m * math.sqrt(total)


def _critical_beta(solution: ClusteringSolution, build, cache: Optional[dict]) -> CriticalBeta:
    """The critical-resolution loop shared by both scatter kinds.

    A cluster block is a function of its member indices m alone: build(m)
    makes the matrix, and cache, if given, maps m.tobytes() to top
    eigenvalues already solved, so a hit reuses one.

    Only the largest top eigenvalue, and the first cluster that has it,
    reach the result, so a block that provably cannot reach it is not
    solved. Blocks missing from the cache are visited widest first, by their
    Frobenius norm b (see _frobenius_bound), which bounds the spectral
    radius rho, and one is skipped when b * (1 + _SKIP_SLACK) is below the
    largest eigenvalue already known at this k. The result is bitwise the
    one from solving every block: the solver's value, a Jacobi diagonal or
    the Rayleigh quotient of the Lanczos Ritz vector, exceeds the lambda_max
    of an n x n matrix by rounding alone, and the computed b falls short of
    rho by rounding alone, each a small multiple of n*n*eps relative to rho.
    For n up to _SKIP_MAX_ORDER that is at most a hundredth of the slack, so
    a skipped block's solver value would have been strictly below the kept
    maximum, and neither the max nor its first argmax moves. A block with a
    non-finite bound fails the comparison and is solved. Skipped blocks are
    not cached.
    """
    cache = {} if cache is None else cache
    lmax = np.zeros(solution.k)
    unsolved = []
    for j in range(solution.k):
        members = solution.members(j)
        if members.size <= 1:
            continue
        block = members.tobytes()
        if block in cache:
            lmax[j] = cache[block]
        else:
            M = build(members)
            unsolved.append((_frobenius_bound(M), j, block, M))
    best = lmax.max()
    for bound, j, block, M in sorted(unsolved, key=lambda u: u[0], reverse=True):
        if best > 0.0 and M.shape[0] <= _SKIP_MAX_ORDER and bound * (1.0 + _SKIP_SLACK) < best:
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
    raised. Each scatter is taken about its member mean, so
    solution.centroids is not read. cache, when given, is a dict owned by
    one sweep over data; blocks are keyed by member set, so a cluster that
    recurs with the same members is solved once. A scatter whose Frobenius
    norm, a bound on its spectral radius, is below the largest eigenvalue
    already known is not solved; the result is bitwise the same (see
    _critical_beta).
    """
    return _critical_beta(solution, lambda m: scatter_matrix(data, m), cache)


def critical_beta_kernel(
    solution: ClusteringSolution, K: np.ndarray, cache: Optional[dict] = None
) -> CriticalBeta:
    """Critical resolution with cluster scatters taken in kernel feature space.

    cache, when given, is a dict owned by one sweep over K; blocks are keyed
    by member set, so a cluster that recurs across k is solved once. As in
    critical_beta, a block that provably cannot hold the largest eigenvalue
    is not solved, with a bitwise equal result.
    """
    return _critical_beta(solution, lambda m: kernel_scatter_matrix(K, m), cache)


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
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["k", "beta_bar", "log_beta_bar", "v"])
        for k in sorted(self.beta_bar):
            b = self.beta_bar[k]
            vk = self.v.get(k)
            writer.writerow([k, repr(b), repr(math.log(b)), "" if vk is None else repr(vk)])
        return buf.getvalue()

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
    similarity matrix and the Laplacian basis, whose first k columns embed
    the points at every k. The basis takes one eigendecomposition per
    connected component of the similarity graph that can reach its first
    k_max columns; the components are visited in ascending mean degree, and
    one is skipped when a Cholesky factorization, shifted by the k_max - m
    lowest eigenvalues found so far plus a rounding margin delta, certifies
    that it cannot (see spectral_basis). A cluster block is a function of
    its members, so one that recurs across k (same members) has its top
    eigenvalue solved once, from a cache that lives only for this call, and
    a block whose Frobenius norm is below the largest eigenvalue known at
    its k is not solved. The k = 1 block, that of every point, is solved
    last, on K itself centered in place, so no second N x N copy is made.
    The output is the same as clustering and solving every k, and every
    block, from scratch, in ascending k.
    Kernel mode raises ValueError before building the N x N matrices when
    sigma is None, not positive or has 2 sigma^2 not positive and finite,
    or when they would not fit in physical memory.

    The points are unweighted (p_i = 1/N), as in the paper's scatters.
    A k_max, k_min or restarts that is not an integer (numbers.Integral,
    not bool), a seed that is not a non-negative integer, restarts < 1 and
    the other bad arguments raise ValueError before any clustering or
    kernel work starts.
    """
    integers = (("k_max", k_max), ("k_min", k_min), ("restarts", restarts), ("seed", seed))
    for name, value in integers:
        _require_integer(name, value)
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if k_max > data.n - 1:
        raise ValueError("k_max must be at most N-1")
    if not 1 <= k_min <= k_max - 1:
        raise ValueError("k_min must lie in 1..k_max-1")
    if mode not in ("linear", "kernel"):
        raise ValueError(f"unknown mode {mode!r}")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    K = basis = None
    if mode == "kernel":
        if sigma is None:
            raise ValueError("kernel mode requires a positive sigma")
        _kernel_denominator(sigma)
        _check_kernel_memory(data.n)
        K = gaussian_kernel(data, sigma)
        basis = spectral_basis(K, k_max)

    # top eigenvalues of the cluster blocks solved so far in this sweep
    cache: dict = {}
    sols: Dict[int, ClusteringSolution] = {}
    cbs: Dict[int, CriticalBeta] = {}
    failure = None
    try:
        for k in range(max(1, k_min - 1), k_max + 1):
            child = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
            with _failing_at(k):
                if mode == "linear":
                    sols[k] = kmeans(data, k, restarts=restarts, seed=child)
                    cbs[k] = critical_beta(sols[k], data, cache)
                else:
                    sols[k] = spectral_cluster(basis, k, restarts=restarts, seed=child)
                    if k > 1:
                        cbs[k] = critical_beta_kernel(sols[k], K, cache)
    except (ValueError, RuntimeError) as e:
        failure = e
    # The one kernel cluster at k = 1 holds every point in order, so its
    # block is K itself: it is centered in place, the sweep's last use of K,
    # with the bits of the gathered copy. It is solved also when a later k
    # has failed, as a failure at k = 1 is reported first.
    if mode == "kernel" and 1 in sols:
        with _failing_at(1):
            cbs[1] = _critical_beta(sols[1], lambda m: _center_kernel_block(K), cache)
    if failure is not None:
        raise failure
    beta_bar = {k: cbs[k].beta for k in sols}
    crit = {k: cbs[k].cluster for k in sols}

    v: Dict[int, float] = {}
    for k in range(max(2, k_min), k_max + 1):
        v[k] = math.log(beta_bar[k]) - math.log(beta_bar[k - 1])
    k_t = min(v)
    for k in sorted(v):
        if v[k] > v[k_t]:
            k_t = k
    return PersistenceProfile(
        k_max=k_max,
        k_min=k_min,
        beta_bar=beta_bar,
        v=v,
        k_t=k_t,
        critical_cluster=crit,
        per_k_solutions=sols,
    )
