"""Symmetric eigen solvers, scatter matrices (also kernel form), squared distances.

Two eigenvalue paths, chosen by matrix size in largest_eigenvalue:

* cyclic Jacobi for orders up to 5 (the 2 x 2 scatters of planar data,
  iris's 4 x 4 ones), giving the full spectrum at machine precision. Each
  rotation turns two rows of A, then the same two columns of A and of V, as
  Python floats; the rotation order and the formulas are fixed, so the
  eigenpairs are bitwise stable. jacobi_eigh itself takes any order;
* Lanczos with full reorthogonalization for every larger order, scatters of
  wider data and kernel blocks alike, where only the top eigenpair is
  needed: at most n matrix-vector products against the n(n-1)/2 rotations
  of each Jacobi sweep. The top eigenpair of each small tridiagonal
  projection comes from numpy.linalg.eigh; the result is the Rayleigh
  quotient of the Ritz vector, certified by its explicit residual. After a
  Krylov block breaks down, the iteration restarts only while the Frobenius
  mass outside the blocks found could still hold a larger eigenvalue and is
  more than rounding.

numpy.linalg.eigh is deliberately not used on the input matrix here: it
solves only the small projected tridiagonal of Lanczos, and serves as an
independent oracle in the test suite and inside the spectral embedding.

Every squared distance in the package is finished from its dot products by
_finish_sq_distances, the only code that takes those rounded steps.

No routine here makes a temporary as large as its N x N input or result.
gaussian_kernel builds K in place inside X @ X.T, one row block of about
_BLOCK_BYTES at a time; kernel_scatter_matrix symmetrizes its block in
place, a tile at a time; the symmetry checks go by tiles and the Lanczos
infinity norm by row blocks; the Lanczos basis gets more rows only as its
steps need them. Each keeps the bits of the whole-matrix expression: the
steps are elementwise, or sums that stay whole within a row, or the same
BLAS calls on arrays of the same shape and strides.
"""
from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .dataset import Dataset

__all__ = [
    "largest_eigenvalue",
    "jacobi_eigh",
    "scatter_matrix",
    "kernel_scatter_matrix",
    "gaussian_kernel",
]

# The largest order solved by Jacobi. Median ms per solve of 20 scatters
# D^T D, D of 3n+5 centered rows, on one OpenBLAS thread (2-core x86-64,
# SkylakeX kernels), at orders 2-6: jacobi_eigh 0.026 0.060 0.111 0.217
# 0.293, _lanczos 0.062 0.086 0.108 0.132 0.163. Lanczos is faster from
# order 5, but another split would change the bits of the blocks it moves.
_JACOBI_MAX_ORDER = 5
_JACOBI_MAX_SWEEPS = 50  # sweeps after which jacobi_eigh gives up
_LANCZOS_RTOL = 1e-10   # Ritz residual, relative to ||M||_inf, that ends a block
_CERTIFIED_RTOL = 1e-8  # explicit residual bound, relative to max(1, ||M||_inf)
_EPS = float(np.finfo(float).eps)
# Work on an N x N array goes in row blocks, or square tiles, of about this
# many bytes, so that no temporary beside the array is larger
_BLOCK_BYTES = 256 * 1024
_TILE = math.isqrt(_BLOCK_BYTES // 8)  # side of a square tile of float64


def _blocks(n: int, size: int) -> list:
    """Slices that cut range(n) into runs of size, the last one shorter."""
    return [slice(lo, lo + size) for lo in range(0, n, size)]


def _block_rows(width: int) -> int:
    """Rows of width float64 values in one block, at least one."""
    return max(1, _BLOCK_BYTES // (8 * width))


def _sq_distances(
    X: np.ndarray, x2: np.ndarray, C: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Squared distances of the rows of X to the rows of C; x2 holds the
    squared norms of the rows of X. The product X @ C.T, whose entries can
    differ from those of C @ X.T in the last place, goes into out, a
    C-contiguous (len(X), len(C)) array when given (matmul with out= makes
    the gemm call it makes without), and is finished there in place.

    C may be a stack of (k, d) center sets, and the result is then the
    stack of their (N, k) matrices: one stacked matmul makes, slice by
    slice, the gemm call that each set makes alone."""
    return _finish_sq_distances(np.matmul(X, C.swapaxes(-1, -2), out=out), x2, (C * C).sum(axis=-1))


def _finish_sq_distances(P: np.ndarray, a2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """(a2[i] + b2[j]) - 2 P[i, j], clipped at 0, in place in P, the dot
    products of rows of squared norms a2 and b2: the only code that takes
    these steps. The sums are the product [a2, 1] @ [1, b2]^T, the one
    temporary of P's size: both terms of each are exact products, so each
    is rounded once, as by a2[:, None] + b2, but in one BLAS call, where
    numpy's broadcast add runs a short loop per row, four to eight times
    slower at the shapes of a Lloyd refresh. A stack of b2 rows finishes
    the same stack of P matrices, each by its own such product. The factors
    are filled from np.empty, as np.ones costs a Python call more."""
    P *= 2.0
    xs, cs = np.empty((len(a2), 2)), np.empty((*b2.shape[:-1], 2, b2.shape[-1]))
    xs[:, 0], xs[:, 1] = a2, 1.0
    cs[..., 0, :], cs[..., 1, :] = 1.0, b2
    np.subtract(xs @ cs, P, out=P)
    np.maximum(P, 0.0, out=P)
    return P


def _require_symmetric(M: np.ndarray) -> np.ndarray:
    """M, or its upper triangle mirrored when M is only nearly symmetric.

    The checks go tile by tile, each tile on or above the diagonal against
    its mirror image transposed, so no N x N temporary is made. A NaN fails
    every comparison, so finiteness is checked first, a band of rows at a
    time. An exactly symmetric matrix of one tile passes after one call per
    check, as in the thousands of 2 x 2 covariances of an anneal.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if M.shape[0] <= _TILE and np.isfinite(M).all() and (M == M.T).all():
        return M
    bands = _blocks(M.shape[0], _TILE)
    if not all([np.isfinite(M[r]).all() for r in bands]):
        raise ValueError("matrix must be finite")
    pairs = [(r, c) for i, r in enumerate(bands) for c in bands[i:]]
    if all([(M[r, c] == M[c, r].T).all() for r, c in pairs]):
        return M
    scale = max(1.0, max([np.abs(M[r]).max() for r in bands]))
    if max([np.abs(M[r, c] - M[c, r].T).max() for r, c in pairs]) > 1e-12 * scale:
        raise ValueError("matrix must be symmetric")
    # Jacobi rotations cannot remove an antisymmetric part, so a matrix
    # accepted as nearly symmetric is solved as its upper triangle mirrored,
    # with the bits and the C order of np.triu(M) + np.triu(M, 1).T, whose
    # entries are each an entry of M plus 0.0
    out = np.add(M, 0.0, order="C")
    for r, c in pairs:
        if r is c:
            T = out[r, r]
            T[...] = np.triu(T) + np.triu(T, 1).T
        else:
            out[c, r] = out[r, c].T
    return out


def _norm(x: np.ndarray) -> float:
    """np.linalg.norm(x) of a float vector, bitwise, without its dispatch.

    These are numpy's own steps. The ravel is kept because it makes a
    strided vector contiguous, and a strided dot may add in another order.
    """
    x = x.ravel(order="K")
    return math.sqrt(float(x.dot(x)))


def _rotate(W: list, p: int, q: int, c: float, s: float) -> None:
    """Rows p and q of A, then columns p and q of A over V, in W (their rows
    as Python floats), to c*x - s*y and s*x + c*y in place: each product and
    sum one rounded double operation, never fused, as in numpy's ufuncs."""
    x, y = W[p], W[q]
    W[p] = [c * a - s * b for a, b in zip(x, y)]
    W[q] = [s * a + c * b for a, b in zip(x, y)]
    for row in W:
        a, b = row[p], row[q]
        row[p], row[q] = c * a - s * b, s * a + c * b


def jacobi_eigh(M: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Returns (eigenvalues ascending, eigenvectors as columns). Intended for
    small orders; cost grows cubically per sweep. M is checked as
    largest_eigenvalue describes, and a nearly symmetric M is solved as its
    upper triangle mirrored. A matrix not diagonal to 1e-14 relative after
    _JACOBI_MAX_SWEEPS (50) sweeps raises RuntimeError.
    """
    M = _require_symmetric(M)
    n = M.shape[0]
    if n == 1:
        return M.diagonal().copy(), np.eye(n)
    # the rows of A over those of V; the norms are numpy's, of a C-ordered A
    W = M.tolist() + np.eye(n).tolist()
    norm = _norm(np.array(W[:n]))
    if norm == 0:
        return np.zeros(n), np.eye(n)
    skip = 1e-18 * norm

    def offnorm():
        # summed directly over off-diagonal entries; computing it as
        # ||A||^2 - ||diag||^2 cancels catastrophically once converged
        O = np.array(W[:n])
        np.fill_diagonal(O, 0.0)
        return _norm(O)

    for sweep in range(_JACOBI_MAX_SWEEPS + 1):
        if offnorm() <= 1e-14 * norm:
            break
        if sweep == _JACOBI_MAX_SWEEPS:
            raise RuntimeError("jacobi sweep cap reached without convergence")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = W[p][q]
                if abs(apq) <= skip:
                    continue
                # rotation angle zeroing A[p,q]
                theta = (W[q][q] - W[p][p]) / (2.0 * apq)
                if theta == 0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                _rotate(W, p, q, c, t * c)
    W = np.array(W)
    w = W[:n].diagonal()
    order = np.argsort(w, kind="stable")
    return w[order], W[n:][:, order]


def _start_vector(n: int) -> np.ndarray:
    """The fixed unit vector Lanczos starts from; not the constant vector,
    which doubly centered kernel blocks annihilate exactly."""
    q = np.cos(np.arange(n) + 0.5)
    return q / _norm(q)


def _tridiagonal_top(a: list, b: list) -> Tuple[float, np.ndarray]:
    """Top eigenpair of the tridiagonal T with diagonal a and off-diagonal b,
    b[i] coupling rows i-1 and i (b[0] = 0), from LAPACK's dense solver.

    T is one array, its three diagonals written through flat slices; the
    main one is added to zeros, as in np.diag(a) + ..., which gives +0.0 for
    a -0.0.
    """
    m = len(a)
    T = np.zeros((m, m))
    T.flat[:: m + 1] += a
    T.flat[1 :: m + 1] = T.flat[m :: m + 1] = b[1:]
    w, S = np.linalg.eigh(T)
    return float(w[-1]), S[:, -1]


def _orthogonalize(w: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """w with its components along the rows of Q removed, in place; two
    classical Gram-Schmidt passes keep it orthogonal to working precision."""
    for _ in range(2):
        w -= Q.T @ (Q @ w)
    return w


def _lanczos(M: np.ndarray) -> Tuple[float, np.ndarray]:
    """Top eigenpair of a symmetric M by Lanczos with full reorthogonalization.

    Each step projects M onto one more Krylov vector and takes the top
    eigenpair (theta, s) of the tridiagonal projection T of the current
    block. The block ends converged when its Ritz residual |beta * s_m| is at
    most _LANCZOS_RTOL * ||M||_inf. A beta that small instead means the block
    spans an invariant subspace: its Ritz values are exact, but the start
    vector may have missed the top eigenvector altogether. Once the largest
    theta so far is positive and its square exceeds the Frobenius mass left
    outside the blocks, ||M||_F^2 - sum ||T||_F^2 in units of ||M||_inf, by a
    rounding margin of 4 n eps of the total, no eigenvalue outside them can
    be larger, and the iteration ends; couplings between blocks, each at most
    the breakdown beta, only shrink the true mass outside. Otherwise it goes
    on from the coordinate vector farthest from the basis, made orthogonal
    to it, and convergence is tested only on the block begun at the last
    restart. But when the mass outside is within the margin itself, M
    vanishes outside the blocks to rounding: that vector joins them as a
    block of theta 0, and the iteration ends instead of restarting once per
    dimension of a null space. The block with the largest theta (the first
    on ties) gives the Ritz vector v; the result is the Rayleigh quotient
    v^T M v, which cannot exceed lambda_max beyond rounding, certified by
    its explicit residual.
    """
    n = M.shape[0]
    # infinity norm, >= ||M||_2, a block of whole rows at a time
    norm = max([float(np.abs(M[r]).sum(axis=1).max()) for r in _blocks(n, _block_rows(n))])
    q = _start_vector(n)
    if norm == 0.0:
        return 0.0, q
    stop = _LANCZOS_RTOL * norm
    # basis rows, doubled in number when a step, or a restart's next row,
    # needs more; Q[: m + 1] has the shape and strides of an n x n basis
    Q = np.empty((min(n, _block_rows(n)), n))
    blocks = []  # (theta, s, first basis row) of each finished block
    first, a, b = 0, [], [0.0]  # T of the current block, scaled by 1 / norm
    outside = None  # Frobenius mass of M / norm outside the finished blocks
    for m in range(n):
        if len(Q) < min(m + 2, n):
            grown = np.empty((min(2 * len(Q), n), n))
            grown[:m] = Q[:m]
            Q = grown
        Q[m] = q
        w = M @ q
        a.append(float(q @ w) / norm)
        beta = _norm(_orthogonalize(w, Q[: m + 1]))
        theta, s = _tridiagonal_top(a, b)
        if beta <= stop or m + 1 == n:
            blocks.append((theta, s, first))
            if m + 1 == n:
                break
            if outside is None:
                total = float(np.linalg.norm(M / norm)) ** 2
                outside, margin = total, 4.0 * n * _EPS * total
            outside -= sum(x * x for x in a) + 2.0 * sum(x * x for x in b)
            top = max(blk[0] for blk in blocks)
            if top > 0.0 and outside + margin < top * top:
                break
            spare = 1.0 - (Q[: m + 1] ** 2).sum(axis=0)  # diagonal of I - Q^T Q
            w = np.zeros(n)
            w[int(np.argmax(spare))] = 1.0
            q = _orthogonalize(w, Q[: m + 1])
            q /= _norm(q)
            if outside <= margin:
                # M vanishes outside the blocks, to rounding: the complement,
                # for which q stands, joins them with its eigenvalue 0
                Q[m + 1] = q
                blocks.append((0.0, [1.0], m + 1))
                break
            first, a, b = m + 1, [], [0.0]
        elif beta * abs(s[-1]) <= stop:
            blocks.append((theta, s, first))
            break
        else:
            b.append(beta / norm)
            q = w / beta
    _, s, first = max(blocks, key=lambda blk: blk[0])
    v = np.asarray(s) @ Q[first : first + len(s)]
    v /= _norm(v)
    u = M @ v
    lam = float(v @ u)
    res = _norm(u - lam * v)
    if not res <= _CERTIFIED_RTOL * max(1.0, norm):
        raise RuntimeError(
            f"lanczos residual {res:.3e} exceeds {_CERTIFIED_RTOL} * max(1, ||M||_inf)"
        )
    return lam, v


def largest_eigenvalue(M: np.ndarray) -> Tuple[float, np.ndarray]:
    """Largest (algebraic) eigenvalue and a unit eigenvector of a symmetric M.

    Orders up to _JACOBI_MAX_ORDER (5) are solved by cyclic Jacobi, larger
    ones by Lanczos, whose eigenvalue is the Rayleigh quotient v^T M v of
    the returned vector and whose bits, built on matrix-vector products and
    small tridiagonal eigh calls, hold for one BLAS build, kernel and thread
    count. The residual ||Mv - lambda v|| is at most
    1e-8 * max(1, ||M||_inf); a Lanczos pair that misses this bound raises
    RuntimeError with its residual. A matrix that is not square, not finite,
    not symmetric or empty raises ValueError first; one within the symmetry
    tolerance but not exactly symmetric is solved as its upper triangle
    mirrored. jacobi_eigh does the one check of the orders it solves.
    """
    M = np.asarray(M, dtype=float)
    if M.shape == (0, 0):
        raise ValueError("matrix must not be empty")
    if M.ndim == 2 and len(M) <= _JACOBI_MAX_ORDER:
        w, V = jacobi_eigh(M)
        return float(w[-1]), V[:, -1]
    return _lanczos(_require_symmetric(M))


def _require_members(members, n: int) -> np.ndarray:
    """members as an array; ValueError, before any gather, unless it names a
    non-empty cluster as ClusteringSolution.members does: strictly
    increasing 1-D integer (not bool) indices in 0..n-1."""
    members = np.asarray(members)
    if not (members.ndim == 1 and members.size and members.dtype.kind in "iu" and members[0] >= 0
            and members[-1] < n and (members[1:] > members[:-1]).all()):
        raise ValueError(f"members must name a non-empty cluster, strictly increasing integer "
                         f"indices in 0..{n - 1}; got {members.dtype} of shape {members.shape}")
    return members


def scatter_matrix(data: Dataset, members: np.ndarray) -> np.ndarray:
    """Unnormalized scatter of one cluster, given by its member indices,
    about the member mean (the centroid of a hard cluster).

    Returns the plain sum of outer products of centered member points, with
    no division by the cluster size. Copies of one point have zero scatter:
    their mean in floating point need not be that point. members must be
    strictly increasing point indices, as ClusteringSolution.members gives.
    """
    X = data.points[_require_members(members, data.n)]
    if (X == X[0]).all():
        return np.zeros((X.shape[1], X.shape[1]))
    D = X - X.mean(axis=0)
    return D.T @ D  # syrk, one triangle copied: exactly symmetric


def kernel_scatter_matrix(K: np.ndarray, cluster_members: np.ndarray) -> np.ndarray:
    """Doubly centered kernel block sharing its nonzero spectrum with the
    feature-space scatter of the cluster with these member indices.

    A_kl = K_kl - rowmean_k - rowmean_l + blockmean over cluster members,
    given as in scatter_matrix.
    """
    members = _require_members(cluster_members, len(K))
    return _center_kernel_block(K[np.ix_(members, members)])


def _center_kernel_block(B: np.ndarray) -> np.ndarray:
    """The C-contiguous square B, doubly centered and symmetrized in place,
    with the rounded steps of (A + A.T) / 2 for
    A = B - rm[:, None] - rm[None, :] + c, rm the row means of B and c its
    mean: kernel_scatter_matrix's block of a gathered copy, or, for the
    block of every point, of K itself."""
    rm = B.mean(axis=1)
    c = B.mean()
    B -= rm[:, None]
    B -= rm[None, :]
    B += c
    return _symmetrize(B)


def _symmetrize(B: np.ndarray) -> np.ndarray:
    """The square B replaced by (B + B.T) / 2, bitwise, in place, one tile
    and its mirror image at a time: x + y is y + x, so both take the same
    bits."""
    bands = _blocks(len(B), _TILE)
    for i, r in enumerate(bands):
        for col in bands[i:]:
            S = B[r, col] + B[col, r].T
            S /= 2.0
            B[r, col] = S
            B[col, r] = S.T
    return B


def _kernel_denominator(sigma: float) -> float:
    """2 sigma^2; ValueError unless sigma > 0 (so not NaN) and 2 sigma^2
    neither overflows to inf nor underflows to 0."""
    two_s2 = 2.0 * sigma * sigma
    if not (sigma > 0.0 and 0.0 < two_s2 < math.inf):
        raise ValueError(f"sigma must be positive with 2 sigma^2 finite and nonzero, got {sigma!r}")
    return two_s2


def gaussian_kernel(data: Dataset, sigma: float) -> np.ndarray:
    """Dense Gaussian similarity matrix exp(-||xi-xj||^2 / (2 sigma^2)).

    K is the product X @ X.T, turned into the kernel in place one row block
    at a time, by _finish_sq_distances and then the rounded steps of
    exp(-d2 / (2 sigma^2)); only a block-sized temporary is made beside it.
    Exactly symmetric as computed: Dataset points are contiguous, so numpy
    computes X @ X.T with BLAS syrk, one triangle copied, and each step maps
    a pair of equal entries to equal values, x2[i] + x2[j] being
    x2[j] + x2[i] (Dataset.sq_norms is bitwise (X * X).sum(axis=1)).
    """
    two_s2 = _kernel_denominator(sigma)
    X, x2 = data.points, data.sq_norms
    K = X @ X.T
    for r in _blocks(len(K), _block_rows(len(K))):
        G = _finish_sq_distances(K[r], x2[r], x2)
        np.negative(G, out=G)
        G /= two_s2
        np.exp(G, out=G)
    np.fill_diagonal(K, 1.0)
    return K
