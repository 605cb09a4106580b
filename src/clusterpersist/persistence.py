"""Critical resolutions, persistence values v(k), and the estimate k_t.

The critical resolution of a k-cluster solution is
beta_bar_k = 1 / (2 max_j lambda_max(S_j)) with S_j the unnormalized scatter
of cluster j about its centroid (kernelized via the doubly centered Gram
block when clustering shapes). The persistence of the k-cluster solution is
v(k) = log beta_bar_k - log beta_bar_{k-1} and the estimated true number of
clusters is the argmax of v, ties going to the smaller k.
"""
from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

import numpy as np

from .clustering import ClusteringSolution, kmeans, spectral_basis, spectral_cluster
from .dataset import Dataset
from .linalg import _kernel_denominator
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


# K, the Laplacian and its eigenvectors: the N x N float64 arrays a kernel
# sweep holds at once while it embeds (eigh's workspace comes on top, so the
# guard rejects only sweeps that cannot fit)
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


def _critical_from_lmax(lmax: np.ndarray) -> CriticalBeta:
    top = float(lmax.max())
    if top <= 0.0:
        raise ValueError("resolution unbounded; reduce k_max")
    j = int(np.argmax(lmax))
    return CriticalBeta(beta=1.0 / (2.0 * top), cluster=j)


# A block is skipped only when its radius bound, raised by this relative
# slack, is still below the largest eigenvalue known at its k; and only when
# n*n*eps, the scale of the rounding in both the bound and the solver, is at
# most a hundredth of the slack, which holds up to order 6710
_SKIP_SLACK = 1e-6
_SKIP_MAX_ORDER = math.isqrt(int(1e-2 * _SKIP_SLACK / np.finfo(float).eps))


def _radius_bounds(M: np.ndarray):
    """Upper bounds ||M^p||_F^(1/p) on the spectral radius of a symmetric M,
    for p = 1, 2, 4 in turn, each no looser than the one before.

    The eigenvalues of M^p are lambda^p, so rho(M)^p <= ||M^p||_F. The powers
    are taken of M scaled to unit Frobenius norm, whose entries and powers
    lie in [-1, 1] at any scale of M, so nothing overflows or underflows.
    """
    m = float(np.abs(M).max())
    if m == 0.0:
        yield 0.0
        return
    P = M / m
    f = float(np.linalg.norm(P))
    P /= f
    for p in (1, 2, 4):
        if p > 1:
            P = P @ P
        yield m * f * float(np.linalg.norm(P)) ** (1.0 / p)


def _critical_beta(solution: ClusteringSolution, key, build, cache: Optional[dict]) -> CriticalBeta:
    """The critical-resolution loop shared by both scatter kinds.

    For each cluster j with members m, key(j, m) names every input of its
    matrix that can change within a sweep and build(j, m) makes the matrix;
    cache, if given, maps keys to top eigenvalues already solved, and a hit
    reuses one.

    Only the largest top eigenvalue, and the first cluster that has it,
    reach the result, so a block that provably cannot reach it is not
    solved. Blocks missing from the cache are visited widest first (by
    Frobenius norm), and one is skipped when a bound b on its spectral
    radius (see _radius_bounds) has b * (1 + _SKIP_SLACK) below the largest
    eigenvalue already known at this k. The result is bitwise the one from
    solving every block: the solver's value, a Jacobi diagonal or the
    Rayleigh quotient of the Lanczos Ritz vector, exceeds the lambda_max of
    an n x n matrix by rounding alone, and the computed b falls short of rho
    by rounding alone, each a small multiple of n*n*eps relative to rho.
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
        block = key(j, members)
        if block in cache:
            lmax[j] = cache[block]
        else:
            M = build(j, members)
            unsolved.append((next(_radius_bounds(M)), j, block, M))
    best = lmax.max()
    for _, j, block, M in sorted(unsolved, key=lambda u: u[0], reverse=True):
        if (
            best > 0.0
            and M.shape[0] <= _SKIP_MAX_ORDER
            and any(b * (1.0 + _SKIP_SLACK) < best for b in _radius_bounds(M))
        ):
            continue
        cache[block], _ = largest_eigenvalue(M)
        lmax[j] = cache[block]
        best = max(best, lmax[j])
    return _critical_from_lmax(lmax)


def critical_beta(
    solution: ClusteringSolution, data: Dataset, cache: Optional[dict] = None
) -> CriticalBeta:
    """Critical resolution of a feature-space solution via scatter spectra.

    Singleton clusters have zero scatter and simply lose the max; if every
    cluster has zero spectrum the resolution is unbounded and an error is
    raised. cache, when given, is a dict owned by one sweep over data;
    blocks are keyed by member set and centroid, so a cluster that recurs
    with the same members and centroid is solved once. A scatter whose
    certified spectral-radius bound is below the largest eigenvalue already
    known is not solved; the result is bitwise the same (see _critical_beta).
    """
    return _critical_beta(
        solution,
        key=lambda j, m: (m.tobytes(), np.asarray(solution.centroids[j], dtype=float).tobytes()),
        build=lambda j, m: scatter_matrix(data, solution.assignment, solution.centroids[j], j),
        cache=cache,
    )


def critical_beta_kernel(
    solution: ClusteringSolution, K: np.ndarray, cache: Optional[dict] = None
) -> CriticalBeta:
    """Critical resolution with cluster scatters taken in kernel feature space.

    cache, when given, is a dict owned by one sweep over K; blocks are keyed
    by member set, so a cluster that recurs across k is solved once. As in
    critical_beta, a block that provably cannot hold the largest eigenvalue
    is not solved, with a bitwise equal result.
    """
    return _critical_beta(
        solution,
        key=lambda j, m: m.tobytes(),
        build=lambda j, m: kernel_scatter_matrix(K, m),
        cache=cache,
    )


@dataclass
class PersistenceProfile:
    """Per-k critical resolutions, persistence values, and the argmax k_t.

    beta_bar maps k -> beta_bar_k for k = k_min-1 .. k_max (k_min defaults
    to 1, so normally 1..k_max); v maps k -> v(k) for k = max(2, k_min) ..
    k_max. critical_cluster records which cluster attained the max
    eigenvalue at each k.
    """

    k_max: int
    k_min: int
    beta_bar: Dict[int, float]
    v: Dict[int, float]
    k_t: int
    critical_cluster: Dict[int, int] = field(default_factory=dict)
    per_k_solutions: Optional[Dict[int, ClusteringSolution]] = None

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


def persistence_profile(
    data: Dataset,
    k_max: int,
    mode: str = "linear",
    restarts: int = 10,
    seed: int = 0,
    sigma: Optional[float] = None,
    k_min: int = 1,
    keep_solutions: bool = False,
) -> PersistenceProfile:
    """Run the clustering sweep k = k_min-1 .. k_max and assemble v(k), k_t.

    mode "linear" clusters with kmeans and uses feature-space scatters; mode
    "kernel" requires sigma, clusters spectrally on the Gaussian similarity
    matrix and uses kernel-space scatters. Every randomized step derives from
    seed, one child stream per k. k_min > 1 restricts both the computed
    solutions and the argmax range (used for wide scans around a known k).

    Work that does not depend on k is done once per sweep: in kernel mode the
    similarity matrix and one Laplacian eigendecomposition, whose first k
    columns embed the points at every k. A cluster block that recurs across
    k (same members, and in linear mode the same centroid) has its top
    eigenvalue solved once, from a cache that lives only for this call, and
    a block whose spectral-radius bound is below the largest eigenvalue
    known at its k is not solved. The output is the same as clustering and
    solving every k, and every block, from scratch.
    Kernel mode raises ValueError before building the N x N matrices when
    2 sigma^2 is not positive and finite, or when they would not fit in
    physical memory.

    The points are unweighted (p_i = 1/N), as in the paper's scatters.
    restarts < 1 and the other bad arguments raise ValueError before any
    clustering or kernel work starts.
    """
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
        if sigma is None or sigma <= 0:
            raise ValueError("kernel mode requires a positive sigma")
        _kernel_denominator(sigma)
        _check_kernel_memory(data.n)
        K = gaussian_kernel(data, sigma)
        basis = spectral_basis(K, k_max)

    # top eigenvalues of the cluster blocks solved so far in this sweep
    cache: dict = {}
    beta_bar: Dict[int, float] = {}
    crit: Dict[int, int] = {}
    sols: Dict[int, ClusteringSolution] = {}
    for k in range(max(1, k_min - 1), k_max + 1):
        child = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        try:
            if mode == "linear":
                sol = kmeans(data, k, restarts=restarts, seed=child)
                cb = critical_beta(sol, data, cache)
            else:
                sol = spectral_cluster(basis, k, restarts=restarts, seed=child)
                cb = critical_beta_kernel(sol, K, cache)
        except (ValueError, RuntimeError) as e:
            raise type(e)(f"k={k}: {e}") from e
        beta_bar[k] = cb.beta
        crit[k] = cb.cluster
        if keep_solutions:
            sols[k] = sol

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
        per_k_solutions=sols if keep_solutions else None,
    )
