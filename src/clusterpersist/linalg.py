"""Symmetric spectral routines and scatter matrices, including the kernel form.

Two eigenvalue paths, chosen by matrix size in largest_eigenvalue:

* cyclic Jacobi for small matrices (feature-space scatters are d x d with
  small d), giving the full spectrum at machine precision. Each rotation
  turns two rows of A, then the same two columns of A and of V, stacked in
  one array, in place; the rotation order and the elementwise formulas are
  fixed, so the eigenpairs are bitwise stable;
* shifted power iteration for large kernel blocks where only the top
  eigenvalue is needed. The shift by the infinity norm makes the operator
  positive semidefinite without reordering the algebraic spectrum; a nearly
  degenerate top pair, which the single vector cannot separate, is handed to
  a two-column block refinement.

numpy.linalg.eigh is deliberately not used here; it serves only as an
independent oracle in the test suite and inside the spectral embedding.
"""
from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from .dataset import Dataset

__all__ = [
    "largest_eigenvalue",
    "jacobi_eigh",
    "scatter_matrix",
    "kernel_scatter_matrix",
    "gaussian_kernel",
]

_JACOBI_MAX_ORDER = 64
_POWER_CAP = 10_000
_POWER_RTOL = 1e-10       # convergence target on the residual
_POWER_ACCEPT = 1e-8      # post-condition bound still accepted at the cap
_POWER_LAM_RTOL = 1e-5    # eigenvalue certificate accepted after refinement
_PROBE_LIMIT = 3          # convergence verifications per call
_BLOCK_SWEEP_CAP = 5_000  # two-column refinement sweeps (2 matvecs each)
_BLOCK_STALL_WINDOW = 2_000  # sweeps without halving the residual -> give up


def _require_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.isfinite(M).all():
        raise ValueError("matrix must be finite")
    scale = max(1.0, np.abs(M).max())
    asymmetry = np.abs(M - M.T).max()
    if asymmetry > 1e-12 * scale:
        raise ValueError("matrix must be symmetric")
    if asymmetry == 0.0:
        return M
    # Jacobi rotations cannot remove an antisymmetric part, so a matrix
    # accepted as nearly symmetric is solved as its upper triangle mirrored
    return np.triu(M) + np.triu(M, 1).T


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a float vector, bitwise, without its dispatch.

    These are numpy's own steps. The ravel is kept because it makes a
    strided vector contiguous, and a strided dot may add in another order.
    """
    x = x.ravel(order="K")
    return math.sqrt(float(x.dot(x)))


def _rotate(x: np.ndarray, y: np.ndarray, c, s, bx: np.ndarray, by: np.ndarray) -> None:
    """x, y <- c*x - s*y, s*x + c*y in place, through the buffers bx and by.

    Each product and each sum is its own rounded ufunc step, as in the
    expressions written out; a fused or matrix form could round differently.
    """
    np.multiply(x, c, bx)
    np.multiply(y, s, by)
    np.multiply(x, s, x)
    np.multiply(y, c, y)
    np.add(x, y, y)
    np.subtract(bx, by, x)


def jacobi_eigh(M: np.ndarray, max_sweeps: int = 50) -> Tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Returns (eigenvalues ascending, eigenvectors as columns). Intended for
    small orders; cost grows cubically per sweep. A nearly symmetric M is
    solved as its upper triangle mirrored.
    """
    M = _require_symmetric(M)
    n = M.shape[0]
    if n == 1:
        return M.diagonal().copy(), np.eye(n)
    # A over V in one array, so one column rotation of W turns the columns of
    # both; A and V are C-ordered blocks, as separate copies would be
    W = np.vstack([M, np.eye(n)])
    A, V = W[:n], W[n:]
    norm = np.linalg.norm(A)
    if norm == 0:
        return np.zeros(n), np.eye(n)
    skip = 1e-18 * norm

    def offnorm(B):
        # summed directly over off-diagonal entries; computing it as
        # ||B||^2 - ||diag||^2 cancels catastrophically once converged
        O = B.copy()
        np.fill_diagonal(O, 0.0)
        return float(np.linalg.norm(O))

    rows = list(A)
    cols = list(W.T)
    rbuf = np.empty(n), np.empty(n)
    cbuf = np.empty(2 * n), np.empty(2 * n)
    for _ in range(max_sweeps):
        if offnorm(A) <= 1e-14 * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = float(A[p, q])
                if abs(apq) <= skip:
                    continue
                # rotation angle zeroing A[p,q]
                theta = (float(A[q, q]) - float(A[p, p])) / (2.0 * apq)
                if theta == 0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                # numpy scalars reach the ufuncs faster than Python floats
                c, s = np.float64(c), np.float64(t * c)
                _rotate(rows[p], rows[q], c, s, *rbuf)
                _rotate(cols[p], cols[q], c, s, *cbuf)
    else:
        if offnorm(A) > 1e-14 * norm:
            raise RuntimeError("jacobi sweep cap reached without convergence")
    w = A.diagonal().copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def _pair_refine(
    M: np.ndarray, shift: float, v0: np.ndarray, kick: np.ndarray, target: float
) -> Tuple[float, np.ndarray, float]:
    """Two-column orthogonal iteration seeded with a stalled power iterate.

    A nearly degenerate top pair mixes down at its internal gap, which can be
    arbitrarily slow; a two-column block converges at the pair's gap to the
    rest of the spectrum instead, and the 2 x 2 Rayleigh-Ritz problem then
    separates the pair exactly. Returns the best (eigenvalue, unit vector,
    residual) seen, measured against M itself.
    """
    u = kick - (kick @ v0) * v0
    nu = _norm(u)
    if nu < 1e-8:
        u = np.sin(np.arange(M.shape[0]) + 0.25)
        u -= (u @ v0) * v0
        nu = _norm(u)
        if nu == 0:
            return 0.0, v0, np.inf
    V = np.stack([v0, u / nu], axis=1)
    best = (0.0, v0, np.inf)
    mark_res, mark_sweep = np.inf, 0
    for sweep in range(_BLOCK_SWEEP_CAP):
        W = M @ V + shift * V
        # Ritz projection; the top Ritz vector and its residual come out of
        # the same product that drives the next sweep
        a = float(V[:, 0] @ W[:, 0])
        b = 0.5 * float(V[:, 0] @ W[:, 1] + V[:, 1] @ W[:, 0])
        c = float(V[:, 1] @ W[:, 1])
        mu = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)
        u0, u1 = (b, mu - a) if abs(mu - a) >= abs(mu - c) else (mu - c, b)
        nu2 = np.hypot(u0, u1)
        if nu2 == 0.0:
            # projected block is a multiple of the identity; either column works
            u0, u1, nu2 = 1.0, 0.0, 1.0
        u0, u1 = u0 / nu2, u1 / nu2
        x = u0 * V[:, 0] + u1 * V[:, 1]
        res = _norm(u0 * W[:, 0] + u1 * W[:, 1] - mu * x)
        if res < best[2]:
            best = (mu - shift, x, res)
        if res <= target:
            break
        # progress check on cumulative halvings, not single-step jumps: a
        # rate too slow to halve within the window cannot reach the target
        # within the sweep cap either
        if best[2] <= 0.5 * mark_res:
            mark_res, mark_sweep = best[2], sweep
        elif sweep - mark_sweep >= _BLOCK_STALL_WINDOW:
            break
        n0 = _norm(W[:, 0])
        if n0 == 0:
            break
        q0 = W[:, 0] / n0
        q1 = W[:, 1] - (q0 @ W[:, 1]) * q0
        n1 = _norm(q1)
        if n1 <= 1e-13 * n0:
            # second column collapsed onto the first; reseed it
            q1 = kick - (kick @ q0) * q0
            n1 = _norm(q1)
            if n1 == 0:
                break
        V = np.stack([q0, q1 / n1], axis=1)
    return best


def _power_iteration(M: np.ndarray) -> Tuple[float, np.ndarray]:
    n = M.shape[0]
    norm = np.abs(M).sum(axis=1).max()  # infinity norm, >= spectral radius
    if norm == 0:
        return 0.0, np.full(n, 1.0 / np.sqrt(n))
    shift = norm  # makes the largest algebraic eigenvalue the largest in magnitude
    scale = max(1.0, norm)
    target = _POWER_RTOL * scale
    accept = _POWER_ACCEPT * scale
    v = np.full(n, 1.0 / np.sqrt(n))
    kick = np.cos(np.arange(n) + 0.5)
    kick /= _norm(kick)
    # The all-ones start can itself be an eigenvector (doubly centered kernel
    # blocks annihilate it exactly), in which case the quotient stalls at a
    # non-dominant eigenvalue with a perfect residual. Every convergence is
    # therefore verified once by perturbing and re-iterating; a quotient that
    # climbs afterwards means the start was orthogonal to the dominant
    # eigenvector, and the climb is followed instead.
    cand = None
    probes = 0
    best_res = np.inf
    best = (0.0, v)
    for _ in range(_POWER_CAP):
        w = M @ v
        lam = float(v @ w)
        res = _norm(w - lam * v)
        if res < best_res:
            best_res = res
            best = (lam, v)
        if res <= target:
            window = 10.0 * target
            if cand is not None and lam <= cand[0] + window:
                return (lam, v) if lam >= cand[0] else cand
            if probes >= _PROBE_LIMIT:
                return (lam, v) if cand is None or lam > cand[0] else cand
            cand = (lam, v)
            probes += 1
            v = v + 1e-3 * kick
            v /= _norm(v)
            best_res = np.inf
            continue
        w += shift * v
        nw = _norm(w)
        if nw == 0:
            # landed exactly in the shifted operator's null space; kick out
            v = v + 1e-3 * kick
            v /= _norm(v)
            continue
        v = w / nw
    if best_res <= accept:
        return best
    # a nearly degenerate top pair (the kernel blocks of closed shapes carry
    # sin/cos mode pairs) stalls the single vector at the pair's internal
    # gap; escalate to a two-column block, which converges at the pair's gap
    # to the rest of the spectrum
    lam_b, v_b, res_b = _pair_refine(M, shift, best[1], kick, target)
    if res_b < best_res:
        best_res = res_b
        best = (lam_b, v_b)
    if best_res <= accept:
        return best
    # For a symmetric matrix the residual bounds the distance from the
    # quotient to the nearest eigenvalue. A top cluster wider than a pair can
    # stall the block as well, but the eigenvalue is already pinned to the
    # cluster's width, so a tight relative certificate is accepted even
    # though the returned vector may still mix the cluster.
    if best_res <= _POWER_LAM_RTOL * abs(best[0]):
        return best
    raise RuntimeError(
        f"power iteration did not converge in {_POWER_CAP} iterations; "
        f"best residual {best_res:.3e} after pair refinement"
    )


def largest_eigenvalue(M: np.ndarray) -> Tuple[float, np.ndarray]:
    """Largest (algebraic) eigenvalue and a unit eigenvector of a symmetric M.

    The residual ||Mv - lambda v|| is at most 1e-8 * max(1, ||M||); a nearly
    degenerate top pair that stalls the single vector is separated by a
    two-column refinement. If even that stalls (a top cluster wider than a
    pair), a residual of at most 1e-5 * |lambda| is still accepted: it
    certifies the eigenvalue to five digits (the residual bounds the
    eigenvalue error for symmetric matrices) while the vector may mix the
    cluster. Anything worse raises with the best residual seen. A matrix
    that is not square, not finite or not symmetric raises ValueError first;
    one within the symmetry tolerance but not exactly symmetric is solved as
    its upper triangle mirrored.
    """
    M = _require_symmetric(M)
    if M.shape[0] <= _JACOBI_MAX_ORDER:
        w, V = jacobi_eigh(M)
        return float(w[-1]), V[:, -1]
    return _power_iteration(M)


def scatter_matrix(data: Dataset, assignment: np.ndarray, centroid: np.ndarray, cluster: int) -> np.ndarray:
    """Unnormalized scatter of one cluster about its centroid.

    Returns the plain sum of outer products of centered member points, with
    no division by the cluster size. The passed centroid must equal the
    member mean within 1e-9, which guards against stale assignments.
    """
    assignment = np.asarray(assignment)
    members = assignment == cluster
    if not members.any():
        raise ValueError("empty cluster")
    X = data.points[members]
    centroid = np.asarray(centroid, dtype=float)
    mean = X.mean(axis=0)
    if np.abs(centroid - mean).max() > 1e-9 * max(1.0, np.abs(mean).max()):
        raise ValueError("centroid mismatch")
    D = X - centroid
    S = D.T @ D
    return (S + S.T) / 2.0


def kernel_scatter_matrix(K: np.ndarray, cluster_members: np.ndarray) -> np.ndarray:
    """Doubly centered kernel block sharing its nonzero spectrum with the
    feature-space scatter of the cluster.

    A_kl = K_kl - rowmean_k - rowmean_l + blockmean over cluster members.
    """
    members = np.asarray(cluster_members)
    if members.dtype == bool:
        members = np.flatnonzero(members)
    if members.size == 0:
        raise ValueError("empty cluster")
    B = K[np.ix_(members, members)]
    rm = B.mean(axis=1)
    A = B - rm[:, None] - rm[None, :] + B.mean()
    return (A + A.T) / 2.0


def gaussian_kernel(data: Dataset, sigma: float) -> np.ndarray:
    """Dense Gaussian similarity matrix exp(-||xi-xj||^2 / (2 sigma^2))."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    X = data.points
    sq = (X * X).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    K = np.exp(-d2 / (2.0 * sigma * sigma))
    K = (K + K.T) / 2.0
    np.fill_diagonal(K, 1.0)
    return K
