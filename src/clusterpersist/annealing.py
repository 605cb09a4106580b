"""Deterministic-annealing reference implementation.

Provides the free energy and Gibbs associations (one logit routine), the
centroid fixed point, the Hessian form whose loss of positivity marks a
phase transition, and an annealing sweep that detects splits empirically,
one posterior evaluation per step. The persistence estimator never calls
this module; it verifies that the predicted critical resolution
1/(2 lambda_max(C)) matches where splits actually happen.

The centroid map is an EM step, and near each phase transition it slows to
a crawl (critical slowing). The fixed point is therefore solved by SQUAREM
(Varadhan & Roland, Scand. J. Statist. 2008), which extrapolates along two
map evaluations and keeps the plain iteration's convergence test.

Every point carries the mass p_i = 1/N, read from Dataset.weights (the
fixed point scales by the scalar 1/N, which is each of its entries): the
estimator's scatters are unweighted, and so are the predictions checked here.

The logits are the (N, k) squared distances of linalg._sq_distances, those
of k-means, copied into one C-contiguous (k, N) array, and the posterior
stays in that layout: the max and the softmax sums add its k rows of N
values in turn, and the fixed point takes the centroid masses as contiguous
row sums. The free energy adds its N terms with numpy's pairwise sum rather
than a BLAS dot, whose bits depend on the thread count. Bad input
raises ValueError before any work, by scalar and shape checks only.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .dataset import Dataset
from .linalg import _norm, _sq_distances, largest_eigenvalue

__all__ = [
    "AnnealTrace",
    "gibbs_associations",
    "free_energy",
    "da_fixed_point",
    "posterior_covariance",
    "hessian_quadratic_form",
    "anneal",
]

_DISTINCT_FRAC = 1e-4     # pairwise distance (x data diameter) separating centroids
_FP_CAP = 4000


@dataclass
class AnnealTrace:
    """Annealing history: (beta, distinct centroid count, free energy) rows
    and the split events (beta, index of the group that split)."""

    schedule: List[Tuple[float, int, float]] = field(default_factory=list)
    split_events: List[Tuple[float, int]] = field(default_factory=list)

    def to_csv(self) -> str:
        """Rows beta, k_distinct, free_energy, one per schedule step."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["beta", "k_distinct", "free_energy"])
        for beta, kd, fe in self.schedule:
            writer.writerow([repr(beta), kd, repr(fe)])
        return buf.getvalue()


def _shifted_logits(data: Dataset, centroids: np.ndarray, beta: float):
    """aT - m and m, where aT[j, i] = -beta ||x_i - y_j||^2 is one C-contiguous
    (k, N) array and m[i] is the max over j (exact in any order). numpy
    reduces over k rows of N values far faster than along N rows of k.

    aT is -beta times a transposed copy of _sq_distances(points, sq_norms,
    Y), taken in (N, k) like the distances of k-means, with their bits."""
    Y = np.atleast_2d(centroids)
    if Y.ndim != 2 or Y.shape[0] < 1 or Y.shape[1] != data.d:
        raise ValueError(f"centroids must be a nonempty (k, {data.d}) array")
    aT = np.multiply(_sq_distances(data.points, data.sq_norms, Y).T, -beta, order="C")
    m = aT.max(axis=0)
    aT -= m
    return aT, m


def gibbs_associations(data: Dataset, centroids: np.ndarray, beta: float) -> np.ndarray:
    """Row-stochastic p(j|i) = softmax_j(-beta ||x_i - y_j||^2), overflow-safe,
    as an (N, k) view of a C-contiguous (k, N) array: its .T is that array."""
    if not 0.0 <= beta < math.inf:
        raise ValueError("beta must be nonnegative and finite")
    eT = _shifted_logits(data, centroids, beta)[0]
    np.exp(eT, out=eT)
    eT /= eT.sum(axis=0)
    return eT.T


def free_energy(data: Dataset, centroids: np.ndarray, beta: float) -> float:
    """F = -(1/beta) sum_i p_i log sum_j exp(-beta ||x_i - y_j||^2)."""
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    eT, m = _shifted_logits(data, centroids, beta)
    np.exp(eT, out=eT)
    lse = m + np.log(eT.sum(axis=0))
    return float(-(data.weights * lse).sum() / beta)


def da_fixed_point(
    data: Dataset,
    centroids_init: np.ndarray,
    beta: float,
    tol: float = 1e-9,
    max_iter: int = 1000,
    accept: Optional[float] = None,
) -> np.ndarray:
    """Solve y_j = sum_i p_i p(j|i) x_i / sum_i p_i p(j|i), the centroid map
    F, by SQUAREM (scheme SqS3; Varadhan & Roland, Scand. J. Statist. 2008).

    F is an EM step, which crawls near a phase transition (critical
    slowing). Each cycle evaluates Y1 = F(Y) and Y2 = F(Y1), takes
    r = Y1 - Y, v = (Y2 - Y1) - r and alpha = min(-|r|/|v|, -1), and goes on
    from Y - 2 alpha r + alpha^2 v; alpha = -1 gives Y2 itself, which is
    also taken when v = 0 or the extrapolated point is not finite.

    max_iter counts evaluations of F. The movement test is the plain
    iteration's: after each evaluation, F(Y) is returned once the maximum
    centroid movement max|F(Y) - Y| is below tol; exceeding max_iter raises
    with the last movement as the residual. Callers that only need positions
    resolved to a coarser scale can pass accept: a final movement at or below
    it is returned instead of raising.

    Each evaluation calls gibbs_associations once, takes the (k, N) array
    behind its result, scales it in place by 1/N, and forms the masses as its
    row sums and the weighted sums as one product with the points. A
    centroid with zero mass stays where it is.
    """
    if not 0.0 < beta < math.inf:
        raise ValueError("beta must be positive and finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    X, w = data.points, 1.0 / data.n  # every entry of data.weights
    Y = np.atleast_2d(np.asarray(centroids_init, dtype=float)).copy()
    Y0 = Y1 = None  # the cycle's start and first image, once F(Y0) is known
    for _ in range(max_iter):
        wPT = gibbs_associations(data, Y, beta).T
        wPT *= w
        mass = wPT.sum(axis=1)
        Ynew = wPT @ X
        nz = mass > 0
        np.divide(Ynew, mass[:, None], out=Ynew, where=nz[:, None])
        np.copyto(Ynew, Y, where=~nz[:, None])
        move = float(np.abs(Ynew - Y).max())
        if move < tol:
            return Ynew
        if Y1 is None:
            Y0, Y1, Y = Y, Ynew, Ynew
        else:
            Y, Y1 = _squarem_step(Y0, Y1, Ynew), None
    if accept is not None and move <= accept:
        return Ynew
    raise RuntimeError(f"fixed point did not converge: residual {move:.3e}")


def _squarem_step(Y0: np.ndarray, Y1: np.ndarray, Y2: np.ndarray) -> np.ndarray:
    """The SqS3 extrapolation from Y0 through Y1 = F(Y0) and Y2 = F(Y1)."""
    r = Y1 - Y0
    v = (Y2 - Y1) - r
    nv = _norm(v)
    if nv == 0.0:
        return Y2
    alpha = min(-_norm(r) / nv, -1.0)
    Y = Y0 - 2.0 * alpha * r + alpha * alpha * v
    return Y if np.isfinite(Y).all() else Y2


def posterior_covariance(data: Dataset, centroids: np.ndarray, beta: float, j: int) -> np.ndarray:
    """Covariance of cluster j under the posterior p(i|j), normalized so the
    posterior weights sum to 1 (the soft analogue of a covariance, distinct
    from the unnormalized hard scatter)."""
    return _posterior_covariance(data, gibbs_associations(data, centroids, beta), centroids, j)


def _posterior_covariance(data: Dataset, P: np.ndarray, centroids: np.ndarray, j: int) -> np.ndarray:
    """posterior_covariance of cluster j from the associations P."""
    q = data.weights * P[:, j]
    total = q.sum()
    if total <= 0:
        raise ValueError(f"cluster {j} has zero posterior mass")
    q = q / total
    D = data.points - np.atleast_2d(centroids)[j]
    C = (q[:, None] * D).T @ D
    return (C + C.T) / 2.0


def hessian_quadratic_form(
    data: Dataset, centroids: np.ndarray, beta: float, psi: np.ndarray
) -> float:
    """Evaluate the free-energy Hessian form in direction psi (one d-vector
    per centroid); positivity for all psi means the configuration is still a
    minimum, and the first sign change marks the phase transition.

    Its length-N sums are numpy's pairwise sums over contiguous rows, not
    BLAS dot products, whose order depends on the BLAS thread count."""
    X, w = data.points, data.weights
    Y = np.atleast_2d(centroids)
    psi = np.atleast_2d(psi)
    if psi.shape != Y.shape:
        raise ValueError("psi must have the shape of the centroids")
    P = gibbs_associations(data, Y, beta)
    total = 0.0
    for j in range(Y.shape[0]):
        mass = float((w * P.T[j]).sum())
        if mass <= 0:
            continue
        C = _posterior_covariance(data, P, Y, j)
        pj = psi[j]
        total += mass * float(pj @ pj - 2.0 * beta * (pj @ C @ pj))
    # cross term: sum_i p_i [ sum_j p(j|i) (x_i - y_j)^T psi_j ]^2
    proj = np.zeros(X.shape[0])
    for j in range(Y.shape[0]):
        proj += P[:, j] * ((X - Y[j]) @ psi[j])
    total += 2.0 * beta * beta * float((w * (proj * proj)).sum())
    return total


def _group_centroids(Y: np.ndarray, thresh: float) -> Tuple[np.ndarray, np.ndarray]:
    """Greedy linkage of near-coincident centroids; returns group means and
    the group index of each input centroid."""
    groups: List[List[int]] = []
    idx = np.empty(Y.shape[0], dtype=int)
    for i, y in enumerate(Y):
        for g, members in enumerate(groups):
            if _norm(y - Y[members[0]]) < thresh:
                members.append(i)
                idx[i] = g
                break
        else:
            idx[i] = len(groups)
            groups.append([i])
    centers = np.vstack([Y[m].mean(axis=0) for m in groups])
    return centers, idx


def anneal(
    data: Dataset,
    beta_schedule: Sequence[float],
    split_perturbation_scale: float = 1e-6,
) -> AnnealTrace:
    """Sweep beta upward, tracking when the distinct centroid count grows.

    At every beta each current group is represented by two candidates offset
    by +/- split_perturbation_scale x diameter along the group's posterior-
    covariance top eigenvector. Below the group's critical beta the pair
    collapses back together; above it the pair separates and a split event
    (beta, group index) is recorded. Deterministic: no random draws are made.
    An offset that is not positive and finite raises ValueError before the
    first fixed point.
    """
    betas = [float(b) for b in beta_schedule]
    if not all(math.isfinite(b) for b in betas):
        raise ValueError("beta schedule must be finite")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])) or not betas:
        raise ValueError("beta schedule must be strictly increasing and nonempty")
    if betas[0] <= 0:
        raise ValueError("beta must be positive")
    X, w = data.points, data.weights
    diam = float(np.linalg.norm(X.max(axis=0) - X.min(axis=0)))
    if diam == 0:
        raise ValueError("degenerate dataset: zero diameter")
    offset = split_perturbation_scale * diam
    if not 0.0 < offset < math.inf:
        raise ValueError("split_perturbation_scale x diameter must be positive and finite")
    thresh = _DISTINCT_FRAC * diam
    centers = np.average(X, axis=0, weights=w)[None, :]
    trace = AnnealTrace()
    for beta in betas:
        cand = np.empty((2 * centers.shape[0], X.shape[1]))
        P = gibbs_associations(data, centers, beta)
        for g in range(centers.shape[0]):
            _, u = largest_eigenvalue(_posterior_covariance(data, P, centers, g))
            # canonical sign so the sweep is reproducible
            lead = np.flatnonzero(np.abs(u) > 1e-12)
            if lead.size and u[lead[0]] < 0:
                u = -u
            cand[2 * g] = centers[g] + offset * u
            cand[2 * g + 1] = centers[g] - offset * u
        # SQUAREM reaches tol well inside the cap even through the critical
        # slowing at a transition; should the cap still end a solve, the
        # residual movement bounds how undecided the candidate pair is, so
        # anything below the grouping threshold yields consistent grouping and
        # a borderline pair is settled by the next schedule step, costing one
        # ratio step of detection lag.
        Y = da_fixed_point(
            data, cand, beta, tol=1e-9 * diam, max_iter=_FP_CAP, accept=0.5 * thresh
        )
        new_centers, idx = _group_centroids(Y, thresh)
        for g in range(centers.shape[0]):
            if idx[2 * g] != idx[2 * g + 1]:
                trace.split_events.append((beta, g))
        centers = new_centers
        trace.schedule.append((beta, centers.shape[0], free_energy(data, centers, beta)))
    return trace
