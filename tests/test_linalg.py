import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterpersist import (
    Dataset,
    gaussian_kernel,
    gen_rings,
    gen_two_disks,
    kernel_scatter_matrix,
    largest_eigenvalue,
    load_csv,
    normalize_zscore,
    persistence_profile,
    scatter_matrix,
)
import clusterpersist.linalg as linalg
from clusterpersist.linalg import _JACOBI_MAX_ORDER, _norm, jacobi_eigh
from helpers import DATA_DIR, allocation_peak, blobs, sym


def test_identity_top_eigenvalue():
    lam, v = largest_eigenvalue(np.eye(3))
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_diagonal_top_pair():
    lam, v = largest_eigenvalue(np.diag([2.0, 1.0]))
    assert lam == pytest.approx(2.0, abs=1e-12)
    assert abs(v[0]) == pytest.approx(1.0, abs=1e-9)
    assert abs(v[1]) < 1e-9


def oracle_cases(n):
    """Random symmetric matrices at every order; from the first order solved
    by Lanczos on, also the inputs that can mislead a Krylov solver."""
    rng = np.random.default_rng(n)
    for _ in range(5):
        yield sym(rng, n, scale=float(rng.uniform(0.1, 10.0)))
    if n <= _JACOBI_MAX_ORDER:
        return
    # the start vector is an eigenvector, of the smaller eigenvalue: the first
    # Krylov block ends at 5 and the top eigenvalue 6 lies orthogonal to it
    q = linalg._start_vector(n)
    w = rng.normal(size=n)
    w -= (w @ q) * q
    w /= np.linalg.norm(w)
    yield 5.0 * np.outer(q, q) + 6.0 * np.outer(w, w)
    # the same, with a mass outside the first block above 5^2 by 2e-9 only
    yield 5.0 * np.outer(q, q) + 5.000000005 * np.outer(w, w)
    # the first block ends at -1 with less mass outside than 1; the top
    # eigenvalue is the zero of the null space all the same
    yield -np.outer(q, q) - 0.5 * np.outer(w, w)
    # doubly centered Gram block, as kernel mode builds them
    X = rng.normal(size=(n, 3))
    H = np.eye(n) - 1.0 / n
    G = H @ (X @ X.T) @ H
    yield (G + G.T) / 2.0
    # top eigenvalue of multiplicity three, in a random basis
    U, _ = np.linalg.qr(rng.normal(size=(n, n)))
    d = np.concatenate([[3.0, 3.0, 3.0], rng.uniform(-2.0, 2.5, size=n - 3)])
    T = (U * d) @ U.T
    yield (T + T.T) / 2.0
    yield np.zeros((n, n))
    # a near-degenerate top pair, and a clustered top triple
    for top in ([1.0, 1.0 - 1e-6], [1.0, 1.0 - 2e-4], [1.0, 1.0 - 1e-6, 1.0 - 2e-6]):
        d = np.full(n, 0.1)
        d[: len(top)] = top
        yield np.diag(d)


def assert_top_pair_matches_dense_oracle(M):
    """largest_eigenvalue(M) gives eigvalsh's top eigenvalue to 1e-12 and a
    unit vector within the documented residual bound, both relative to
    max(1, ||M||_inf)."""
    lam, v = largest_eigenvalue(M)
    scale = max(1.0, np.abs(M).sum(axis=1).max())
    assert abs(lam - np.linalg.eigvalsh(M)[-1]) <= 1e-12 * scale
    assert np.linalg.norm(M @ v - lam * v) <= 1e-8 * scale
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 8, 20, 64, 65, 100, 450])
def test_top_eigenvalue_matches_dense_oracle(n):
    for M in oracle_cases(n):
        assert_top_pair_matches_dense_oracle(M)


@pytest.mark.parametrize("n", [200, 500])
def test_top_eigenvalue_on_large_gram_blocks(n):
    # the large-matrix path exists for kernel blocks, which are Gram-like
    rng = np.random.default_rng(n)
    for _ in range(3):
        X = rng.normal(size=(n, 8)) * float(rng.uniform(0.3, 3.0))
        M = X @ X.T
        M = (M + M.T) / 2.0
        lam, v = largest_eigenvalue(M)
        ref = np.linalg.eigvalsh(M)[-1]
        assert lam == pytest.approx(ref, rel=1e-8)
        resid = np.linalg.norm(M @ v - lam * v)
        assert resid <= 1e-6 * np.abs(M).sum(axis=1).max()


def test_input_validation(monkeypatch):
    with pytest.raises(ValueError, match="square"):
        largest_eigenvalue(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        largest_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def no_solver(*args, **kwargs):
        raise AssertionError("solver reached")

    # an empty matrix has no largest eigenvalue; Jacobi would return none
    monkeypatch.setattr(linalg, "_lanczos", no_solver)
    monkeypatch.setattr(linalg, "jacobi_eigh", no_solver)
    with pytest.raises(ValueError, match="matrix must not be empty"):
        largest_eigenvalue(np.zeros((0, 0)))


@pytest.mark.parametrize("n", [5, 70])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_matrix_refused_before_any_solver_work(n, bad, monkeypatch):
    # a NaN fails every comparison, so a symmetry check alone passes it, and
    # both solvers would then run to their caps
    M = np.eye(n)
    M[1, 3] = M[3, 1] = bad

    def no_solver(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(linalg, "_lanczos", no_solver)
    monkeypatch.setattr(linalg, "_rotate", no_solver)
    with pytest.raises(ValueError, match="matrix must be finite"):
        largest_eigenvalue(M)
    with pytest.raises(ValueError, match="matrix must be finite"):
        jacobi_eigh(M)


def test_doubly_centered_block_yields_its_top_eigenvalue_not_the_constant_zero():
    """Doubly centered Gram blocks annihilate the constant vector; the
    dominant eigenvalue must be found, not the zero that vector carries."""
    rng = np.random.default_rng(7)
    for n in (65, 80, 120):
        X = rng.normal(size=(n, 3))
        H = np.eye(n) - np.ones((n, n)) / n
        A = H @ (X @ X.T) @ H
        A = (A + A.T) / 2.0
        lam, v = largest_eigenvalue(A)
        ref = np.linalg.eigvalsh(A)[-1]
        assert lam == pytest.approx(ref, rel=1e-8)
        assert lam > 1.0


@pytest.mark.parametrize("gap", [1e-6, 2e-4])
def test_top_eigenvalue_separates_near_degenerate_pair(gap):
    # the pair is far closer together than to the rest of the spectrum
    d = np.full(65, 0.1)
    d[0] = 1.0
    d[1] = 1.0 - gap
    M = np.diag(d)
    lam, v = largest_eigenvalue(M)
    assert abs(lam - 1.0) <= 1e-12
    assert np.linalg.norm(M @ v - lam * v) <= 1e-8
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


def test_top_eigenvalue_certified_on_clustered_triple():
    # three eigenvalues within 2e-6 still give a certified vector
    d = np.full(65, 0.1)
    d[0] = 1.0
    d[1] = 1.0 - 1e-6
    d[2] = 1.0 - 2e-6
    M = np.diag(d)
    lam, v = largest_eigenvalue(M)
    assert abs(lam - 1.0) <= 1e-12
    assert np.linalg.norm(M @ v - lam * v) <= 1e-8
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


def test_top_eigenvalue_of_wide_cluster_beside_large_negative_eigenvalue():
    # a triple spread over 4e-4 beside -9, which dominates ||M||_inf and so
    # every tolerance scaled by it
    d = np.full(65, 0.1)
    d[0] = 1.0
    d[1] = 1.0 - 2e-4
    d[2] = 1.0 - 4e-4
    d[3] = -9.0
    M = np.diag(d)
    lam, v = largest_eigenvalue(M)
    assert abs(lam - 1.0) <= 1e-12
    assert np.linalg.norm(M @ v - lam * v) <= 1e-8 * np.abs(M).sum(axis=1).max()


def test_jacobi_full_factorization():
    rng = np.random.default_rng(2)
    for n in (1, 2, 5, 10, 30):
        M = sym(rng, n)
        w, V = jacobi_eigh(M)
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(V @ np.diag(w) @ V.T, M, atol=1e-10)
        np.testing.assert_allclose(V.T @ V, np.eye(n), atol=1e-10)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(M), atol=1e-10)


def test_jacobi_near_diagonal_input():
    """A nearly converged matrix must be recognized as such; measuring the
    off-diagonal mass by norm subtraction instead of directly would floor at
    sqrt(eps) and spin until the sweep cap."""
    w = np.array([21.0, 17.0, 8.6, 1.1])
    rng = np.random.default_rng(0)
    E = rng.normal(size=(4, 4)) * 1e-12
    M = np.diag(w) + (E + E.T) / 2.0
    np.fill_diagonal(M, w)
    vals, _ = jacobi_eigh(M)
    np.testing.assert_allclose(vals, np.sort(w), atol=1e-9)


# Reference Jacobi: the rotation loop as first written, with a copy of each
# row and column per rotation. The in-place loop must reproduce it bit for
# bit. The input checks are left out; they raise or pass M through as float.
def oracle_jacobi_eigh(M, max_sweeps=50):
    A = np.asarray(M, dtype=float).copy()
    n = A.shape[0]
    V = np.eye(n)
    if n == 1:
        return A.diagonal().copy(), V
    norm = np.linalg.norm(A)
    if norm == 0:
        return np.zeros(n), V

    def offnorm(B):
        O = B.copy()
        np.fill_diagonal(O, 0.0)
        return float(np.linalg.norm(O))

    for _ in range(max_sweeps):
        if offnorm(A) <= 1e-14 * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= 1e-18 * norm:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = A[p, :].copy(), A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp, cq = A[:, p].copy(), A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
                vp, vq = V[:, p].copy(), V[:, q].copy()
                V[:, p] = c * vp - s * vq
                V[:, q] = s * vp + c * vq
    else:
        if offnorm(A) > 1e-14 * norm:
            raise RuntimeError("jacobi sweep cap reached without convergence")
    w = A.diagonal().copy()
    order = np.argsort(w, kind="stable")
    return w[order], V[:, order]


def assert_jacobi_matches_oracle(M, oracle_input=None):
    """Same eigenpairs bit for bit, in the same memory layout; the oracle
    solves oracle_input when given, else M."""
    want_pairs = oracle_jacobi_eigh(M if oracle_input is None else oracle_input)
    for got, want in zip(jacobi_eigh(M), want_pairs):
        assert got.dtype == want.dtype and got.strides == want.strides
        assert np.array_equal(got, want)


# every order up to 32, then spaced out to 64: jacobi_eigh is public at
# every order, though largest_eigenvalue sends only the smallest to it
@pytest.mark.parametrize("n", [*range(1, 33), 40, 48, 56, 64])
def test_jacobi_is_bitwise_the_reference(n):
    rng = np.random.default_rng(n)
    assert_jacobi_matches_oracle(sym(rng, n, scale=float(rng.uniform(0.1, 10.0))))


@pytest.mark.parametrize("n", [2, 3, 5, 13, 30])
def test_jacobi_bitwise_on_structured_inputs(n):
    rng = np.random.default_rng(100 + n)
    # equal diagonal entries: theta == 0 on the first rotation
    B = sym(rng, n)
    np.fill_diagonal(B, 1.5)
    assert_jacobi_matches_oracle(B)
    # all ones, rank one: theta == 0 on the first rotation as well
    assert_jacobi_matches_oracle(np.ones((n, n)))
    # exactly diagonal: every pair takes the skip branch
    assert_jacobi_matches_oracle(np.diag(rng.normal(size=n)))
    # block diagonal: exact zeros skipped among pairs that rotate
    D = sym(rng, n)
    D[: n // 2, n // 2 :] = D[n // 2 :, : n // 2] = 0.0
    assert_jacobi_matches_oracle(D)


def test_jacobi_bitwise_on_special_inputs():
    for n in (1, 2, 7):
        assert_jacobi_matches_oracle(np.zeros((n, n)))
    w = np.array([21.0, 17.0, 8.6, 1.1])
    E = np.random.default_rng(0).normal(size=(4, 4)) * 1e-12
    M = np.diag(w) + (E + E.T) / 2.0
    np.fill_diagonal(M, w)
    assert_jacobi_matches_oracle(M)
    assert_jacobi_matches_oracle(np.array([[2.0, -0.0], [-0.0, 2.0]]))
    assert_jacobi_matches_oracle(np.array([[1.0, 1e-300], [1e-300, 1.0]]))


def test_jacobi_sweep_cap_raises():
    M = sym(np.random.default_rng(6), 6)
    for solver in (jacobi_eigh, oracle_jacobi_eigh):
        with pytest.raises(RuntimeError, match="jacobi sweep cap reached"):
            solver(M, max_sweeps=1)


def test_jacobi_bitwise_on_near_symmetric_matrices():
    # off by up to 1e-14 above the diagonal, well inside the symmetry check,
    # and in either memory order: solved as the upper triangle mirrored
    rng = np.random.default_rng(5)
    for n in range(2, 17):
        M = sym(rng, n) + 1e-14 * np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
        mirrored = np.triu(M) + np.triu(M, 1).T
        assert_jacobi_matches_oracle(M, mirrored)
        assert_jacobi_matches_oracle(np.asfortranarray(M), mirrored)


def test_near_symmetric_input_solves_to_eigvalsh():
    # the antisymmetric part of this matrix kept Jacobi from converging
    # before the input was mirrored
    rng = np.random.default_rng(2)
    A = rng.normal(size=(5, 5))
    M = (A + A.T) / 2 + 1e-14 * np.triu(rng.normal(size=(5, 5)), 1)
    want = np.linalg.eigvalsh(np.triu(M) + np.triu(M, 1).T)
    np.testing.assert_allclose(jacobi_eigh(M)[0], want, rtol=0, atol=1e-12)
    assert abs(largest_eigenvalue(M)[0] - want[-1]) <= 1e-12


@pytest.mark.parametrize("n", [linalg._TILE - 1, linalg._TILE, linalg._TILE + 1, 2 * linalg._TILE + 1])
def test_symmetry_checks_across_tile_edges(n, monkeypatch):
    rng = np.random.default_rng(n)
    M = sym(rng, n)
    for X in (M, np.asfortranarray(M)):
        assert linalg._require_symmetric(X) is X
    # an asymmetry of 1e-14 in the last tile, below the diagonal, is mirrored
    # away, bit for bit and layout for layout as by the whole-matrix formula,
    # which also turns a -0.0 above the diagonal into +0.0
    E = M.copy()
    E[n - 1, n - 2] += 1e-14
    E[0, 1], E[1, 0] = -0.0, 0.0
    want = np.triu(E) + np.triu(E, 1).T
    for X in (E, np.asfortranarray(E)):
        got = linalg._require_symmetric(X)
        assert got.tobytes(order="A") == want.tobytes(order="A")
        assert got.flags.c_contiguous
    E[n - 1, n - 2] += 1e-6
    with pytest.raises(ValueError, match="matrix must be symmetric"):
        linalg._require_symmetric(E)
    # a NaN below the diagonal in the last row, which a mirror would drop
    E = M.copy()
    E[n - 1, 0] = np.nan

    def no_solver(*args, **kwargs):
        raise AssertionError("solver reached")

    monkeypatch.setattr(linalg, "_lanczos", no_solver)
    monkeypatch.setattr(linalg, "_rotate", no_solver)
    with pytest.raises(ValueError, match="matrix must be finite"):
        largest_eigenvalue(E)


def test_tridiagonal_top_is_the_three_diagonal_sum_bit_for_bit():
    rng = np.random.default_rng(4)
    for m in range(1, 40):
        a = rng.normal(size=m).tolist()
        a[m // 2] = -0.0
        b = [0.0] + rng.uniform(0.1, 1.0, size=m - 1).tolist()
        w, S = np.linalg.eigh(np.diag(a) + np.diag(b[1:], 1) + np.diag(b[1:], -1))
        theta, s = linalg._tridiagonal_top(a, b)
        assert theta == w[-1]
        assert s.tobytes() == S[:, -1].tobytes()


def test_exactly_symmetric_input_passes_through_unchanged():
    # the same object, so layout and signed zeros reach the solvers as given
    for M in (sym(np.random.default_rng(9), 6), np.array([[2.0, -0.0], [-0.0, 2.0]])):
        for X in (M, np.asfortranarray(M)):
            assert linalg._require_symmetric(X) is X


def test_jacobi_bitwise_on_scatter_matrices():
    rng = np.random.default_rng(11)
    for d in (2, 4, 13, 30):
        centers = rng.normal(size=(3, d)) * 4.0
        ds = blobs(centers, 1.0, 40, seed=d)
        labels = np.asarray(ds.labels)
        for j in range(3):
            assert_jacobi_matches_oracle(scatter_matrix(ds, np.flatnonzero(labels == j)))


def test_norm_is_bitwise_numpy_norm():
    rng = np.random.default_rng(8)
    for n in [*range(1, 301), 450, 900, 1350]:
        base = rng.normal(size=(n, 3))
        for scale in (1e-150, 1.0, 1e150):
            X = base * scale
            for v in (X[:, 0].copy(), X[:, 1]):  # contiguous, strided
                got = _norm(v)
                assert isinstance(got, float)
                assert got == np.linalg.norm(v)


def spy_solvers(monkeypatch):
    """Records (solver name, order) for each solve largest_eigenvalue hands on."""
    calls = []
    for name in ("jacobi_eigh", "_lanczos"):

        def spy(M, _solver=getattr(linalg, name), _name=name):
            calls.append((_name, M.shape[0]))
            return _solver(M)

        monkeypatch.setattr(linalg, name, spy)
    return calls


def test_dispatch_size_boundary(monkeypatch):
    calls = spy_solvers(monkeypatch)
    rng = np.random.default_rng(9)
    for n, solver in ((_JACOBI_MAX_ORDER, "jacobi_eigh"), (_JACOBI_MAX_ORDER + 1, "_lanczos")):
        calls.clear()
        M = sym(rng, n)
        lam, _ = largest_eigenvalue(M)
        assert calls == [(solver, n)]
        assert lam == pytest.approx(np.linalg.eigvalsh(M)[-1], rel=1e-8, abs=1e-8)


def zscored_table(name, label_column):
    return normalize_zscore(load_csv(DATA_DIR / f"{name}.csv", label_column=label_column))


@pytest.mark.parametrize("name, d", [("wine", 13), ("wisconsin", 30)])
def test_rank_deficient_table_scatters_take_at_most_m_lanczos_steps(monkeypatch, name, d):
    # m <= d members scatter in at most m - 1 directions, so the first Krylov
    # block breaks down or converges within m steps, and what is left outside
    # it is rounding, which ends the iteration without a restart; the restart
    # cases at these orders are in oracle_cases
    data = zscored_table(name, d)
    rng = np.random.default_rng(d)
    calls = spy_solvers(monkeypatch)
    steps = count_lanczos_steps(monkeypatch)
    for m in (2, 3, 4, d // 2, d - 1, d):
        S = scatter_matrix(data, np.sort(rng.choice(len(data.points), size=m, replace=False)))
        assert np.linalg.matrix_rank(S) < m
        calls.clear()
        steps[0] = 0
        assert_top_pair_matches_dense_oracle(S)
        assert calls == [("_lanczos", d)]
        assert steps[0] <= m


@pytest.mark.parametrize("name, d", [("wine", 13), ("wisconsin", 30)])
def test_table_cluster_scatters_of_one_sweep_solved_by_lanczos(monkeypatch, name, d):
    data = zscored_table(name, d)
    prof = persistence_profile(data, k_max=10, restarts=8, seed=0)
    calls = spy_solvers(monkeypatch)
    for sol in prof.per_k_solutions.values():
        for j in range(sol.k):
            assert_top_pair_matches_dense_oracle(scatter_matrix(data, sol.members(j)))
    assert len(calls) == sum(sol.k for sol in prof.per_k_solutions.values())
    assert set(calls) == {("_lanczos", d)}


@pytest.mark.parametrize("n", [_JACOBI_MAX_ORDER + 1, 13, 30, 64])
def test_lanczos_solves_near_symmetric_input_as_its_mirror_bit_for_bit(n):
    rng = np.random.default_rng(n)
    M = sym(rng, n) + 1e-14 * np.triu(rng.uniform(-1.0, 1.0, size=(n, n)), 1)
    assert not np.array_equal(M, M.T)
    mirrored = np.triu(M) + np.triu(M, 1).T
    want_lam, want_v = largest_eigenvalue(mirrored)
    for X in (M, np.asfortranarray(M)):
        lam, v = largest_eigenvalue(X)
        assert lam == want_lam and np.array_equal(v, want_v)
    assert_top_pair_matches_dense_oracle(mirrored)


def test_scatter_singleton_is_zero():
    ds = Dataset(np.array([[1.0, 2.0], [5.0, 5.0]]))
    S = scatter_matrix(ds, np.array([0]))
    np.testing.assert_array_equal(S, np.zeros((2, 2)))


def test_scatter_two_symmetric_points():
    ds = Dataset(np.array([[-1.0, 0.0], [1.0, 0.0]]))
    S = scatter_matrix(ds, np.arange(2))
    np.testing.assert_allclose(S, [[2.0, 0.0], [0.0, 0.0]], atol=1e-15)


def test_scatter_is_unnormalized():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(30, 2))
    ds = Dataset(X)
    S = scatter_matrix(ds, np.arange(30))
    C = np.cov(X.T, bias=True) * 30
    np.testing.assert_allclose(S, C, atol=1e-9)


def test_scatter_validation():
    ds = Dataset(np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="empty cluster"):
        scatter_matrix(ds, np.array([], dtype=int))


def test_scatter_disk_eigenvalue():
    n, R = 3000, 1.0
    ds = gen_two_disks(R, 4.0, n, seed=4)
    assignment = np.asarray(ds.labels)
    for j in range(2):
        S = scatter_matrix(ds, np.flatnonzero(assignment == j))
        lam, _ = largest_eigenvalue(S)
        assert lam == pytest.approx(n * R * R / 4.0, rel=0.05)


def test_kernel_scatter_singleton():
    K = np.array([[2.0, 0.3], [0.3, 1.0]])
    A = kernel_scatter_matrix(K, np.array([0]))
    np.testing.assert_array_equal(A, np.zeros((1, 1)))


def test_kernel_scatter_identical_points():
    ds = Dataset(np.full((4, 2), 3.0))
    K = gaussian_kernel(ds, 1.0)
    A = kernel_scatter_matrix(K, np.arange(4))
    np.testing.assert_allclose(A, 0.0, atol=1e-12)


def test_kernel_scatter_empty_cluster():
    with pytest.raises(ValueError, match="empty cluster"):
        kernel_scatter_matrix(np.eye(3), np.array([], dtype=int))


def oracle_kernel_scatter(K, members):
    B = K[np.ix_(members, members)]
    rm = B.mean(axis=1)
    A = B - rm[:, None] - rm[None, :] + B.mean()
    return (A + A.T) / 2.0


def test_kernel_scatter_is_bitwise_the_oracle():
    K = gaussian_kernel(normalize_zscore(gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0)), 0.01)
    before = K.copy()
    rng = np.random.default_rng(3)
    # the block is symmetrized one tile pair at a time from the tile side on
    tile = linalg._TILE
    sizes = [1, 2, 3, 7, 8, 9, 64, tile - 1, tile, tile + 1, 2 * tile, 2 * tile + 1, 450, 451, 900]
    sizes += rng.integers(1, len(K), size=10).tolist()
    for size in sizes:
        members = rng.choice(len(K), size=size, replace=False)
        for m in (np.sort(members), members):
            A = kernel_scatter_matrix(K, m)
            assert A.tobytes() == oracle_kernel_scatter(K, m).tobytes()
            assert np.array_equal(A, A.T)
    # the block is centered in a copy, never in K
    assert K.tobytes() == before.tobytes()


def test_linear_kernel_spectrum_matches_scatter():
    """With a linear kernel the centered block and the feature-space scatter
    share their nonzero spectrum."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 3))
    ds = Dataset(X)
    A = kernel_scatter_matrix(X @ X.T, np.arange(12))
    S = scatter_matrix(ds, np.arange(12))
    wa = np.sort(np.linalg.eigvalsh(A))[::-1]
    ws = np.sort(np.linalg.eigvalsh(S))[::-1]
    np.testing.assert_allclose(wa[:3], ws[:3], atol=1e-8)
    assert np.abs(wa[3:]).max() < 1e-8
    lam_a, _ = largest_eigenvalue(A)
    lam_s, _ = largest_eigenvalue(S)
    assert lam_a == pytest.approx(lam_s, abs=1e-8)


def test_gaussian_kernel_values():
    ds = Dataset(np.array([[0.0], [1.0]]))
    K = gaussian_kernel(ds, 1.0 / np.sqrt(2.0))
    np.testing.assert_allclose(np.diag(K), 1.0)
    assert K[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)
    assert K[1, 0] == K[0, 1]


def test_gaussian_kernel_unit_square():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    K = gaussian_kernel(Dataset(pts), 1.0)
    e1, e2 = np.exp(-0.5), np.exp(-1.0)
    want = np.array(
        [[1, e1, e2, e1], [e1, 1, e1, e2], [e2, e1, 1, e1], [e1, e2, e1, 1]]
    )
    np.testing.assert_allclose(K, want, atol=1e-12)


def test_gaussian_kernel_sigma_validation():
    # 2 sigma^2 overflows to inf at 1e200 and underflows to 0 at 1e-200
    for sigma in (0.0, -1.0, math.nan, math.inf, 1e200, 1e-200):
        with pytest.raises(ValueError, match="sigma must be positive"):
            gaussian_kernel(Dataset(np.zeros((2, 1))), sigma)


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_gaussian_kernel_is_psd(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 20))
    ds = Dataset(rng.normal(size=(n, int(rng.integers(1, 4)))))
    K = gaussian_kernel(ds, float(rng.uniform(0.2, 3.0)))
    w = np.linalg.eigvalsh(K)
    assert w.min() >= -1e-9 * w.max()


@given(st.sampled_from([0.1, 10.0]), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_scatter_scaling(c, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(10, 3))
    S1 = scatter_matrix(Dataset(X), np.arange(10))
    S2 = scatter_matrix(Dataset(c * X), np.arange(10))
    np.testing.assert_allclose(S2, c * c * S1, rtol=1e-10, atol=1e-12 * c * c)


@pytest.mark.parametrize("n", [6, 100])
def test_shift_invariance(n):
    rng = np.random.default_rng(n)
    M = sym(rng, n)
    lam, _ = largest_eigenvalue(M)
    lam_t, _ = largest_eigenvalue(M + 7.5 * np.eye(n))
    assert lam_t == pytest.approx(lam + 7.5, rel=1e-8, abs=1e-8)


@given(st.integers(0, 10_000), st.integers(2, 30))
@settings(max_examples=30, deadline=None)
def test_top_eigenvalue_bounds(seed, n):
    rng = np.random.default_rng(seed)
    M = sym(rng, n)
    lam, v = largest_eigenvalue(M)
    assert lam >= M.diagonal().max() - 1e-8
    assert lam <= np.abs(M).sum(axis=1).max() + 1e-8
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)


def layouts(rng, n, d):
    """The same kind of points C-ordered, Fortran-ordered and strided."""
    X = rng.normal(size=(n, d)) * float(rng.uniform(0.1, 10.0))
    yield X
    yield np.asfortranarray(X)
    yield rng.normal(size=(2 * n, 3 * d))[::2, ::3]


def oracle_gaussian_kernel(X, sigma):
    sq = (X * X).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (X @ X.T)
    np.maximum(d2, 0.0, out=d2)
    K = np.exp(-d2 / (2.0 * sigma * sigma))
    K = (K + K.T) / 2.0
    np.fill_diagonal(K, 1.0)
    return K


@pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (17, 2), (150, 4), (300, 30)])
def test_gaussian_kernel_is_exactly_symmetric_and_bitwise_the_oracle(n, d):
    # X @ X.T is syrk, one triangle copied, for C- and Fortran-ordered
    # points, but gemm on copies for points strided in both axes, which is
    # not exactly symmetric from about 300 points. Dataset keeps a
    # C-ordered copy of any layout, so the kernel is exactly symmetric
    # unsymmetrized, and the oracle's symmetrization leaves it unchanged
    rng = np.random.default_rng(n + d)
    for X in layouts(rng, n, d):
        K = gaussian_kernel(Dataset(X), 0.7)
        assert np.array_equal(K, K.T)
        assert np.array_equal(K, oracle_gaussian_kernel(np.ascontiguousarray(X), 0.7))


@pytest.mark.parametrize("n", [linalg._TILE - 1, linalg._TILE, linalg._TILE + 1, 1350])
def test_gaussian_kernel_row_blocks_are_bitwise_the_oracle(n):
    # a kernel of up to _TILE points is one row block; from _TILE + 1 on it
    # is built block by block in the product X @ X.T
    X = normalize_zscore(gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0)).points[:n]
    for sigma in (0.01, 0.7):
        K = gaussian_kernel(Dataset(X), sigma)
        assert np.array_equal(K, K.T)
        assert K.tobytes() == oracle_gaussian_kernel(X, sigma).tobytes()


def test_gaussian_kernel_holds_no_second_n_by_n_array():
    # the gate 4a data; a temporary as large as K takes the peak to 2 K
    ds = normalize_zscore(gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0))
    K, peak = allocation_peak(gaussian_kernel, ds, 0.01)
    assert peak <= 1.25 * K.nbytes


def test_lanczos_allocates_only_the_basis_rows_it_reaches():
    # the k = 1 block of gate 4a converges in a few dozen steps; an n x n
    # basis made up front would allocate as much as the block itself
    ds = normalize_zscore(gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0))
    M = kernel_scatter_matrix(gaussian_kernel(ds, 0.01), np.arange(ds.n))
    (lam, v), peak = allocation_peak(largest_eigenvalue, M)
    assert peak < 0.25 * M.nbytes
    assert np.linalg.norm(M @ v - lam * v) <= 1e-8 * np.abs(M).sum(axis=1).max()


@pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (17, 2), (150, 4), (300, 30)])
def test_scatter_matrix_is_exactly_symmetric_and_bitwise_the_oracle(n, d):
    rng = np.random.default_rng(n * d)
    for X in layouts(rng, n, d):
        a = rng.integers(0, 2, size=n)
        a[0] = 0
        ds = Dataset(X)
        for j in np.unique(a):
            S = scatter_matrix(ds, np.flatnonzero(a == j))
            D = X[a == j] - X[a == j].mean(axis=0)
            want = D.T @ D
            assert np.array_equal(S, S.T)
            assert np.array_equal(S, (want + want.T) / 2.0)


def count_lanczos_steps(monkeypatch):
    """Counts Lanczos steps: each one solves one tridiagonal projection."""
    steps = [0]
    top = linalg._tridiagonal_top

    def counted(a, b):
        steps[0] += 1
        return top(a, b)

    monkeypatch.setattr(linalg, "_tridiagonal_top", counted)
    return steps


def test_lanczos_stops_once_no_mass_outside_can_hold_a_larger_eigenvalue(monkeypatch):
    # a rank-three doubly centered Gram block: the first Krylov block breaks
    # down after four steps, and what is left is an exact null space
    n = 450
    X = np.random.default_rng(0).normal(size=(n, 3))
    H = np.eye(n) - 1.0 / n
    G = H @ (X @ X.T) @ H
    M = (G + G.T) / 2.0
    steps = count_lanczos_steps(monkeypatch)
    lam, v = largest_eigenvalue(M)
    ref = np.linalg.eigvalsh(M)[-1]
    assert abs(lam - ref) <= 1e-12 * ref
    assert steps[0] <= 10
    assert np.linalg.norm(M @ v - lam * v) <= 1e-8 * np.abs(M).sum(axis=1).max()


@pytest.mark.parametrize("w_weight", [0.0, 0.5])
def test_lanczos_stops_once_the_mass_outside_is_rounding(monkeypatch, w_weight):
    # no theta is above 0 beyond rounding, and past the first blocks M is an
    # exact null space of order about 900, which restarts used to step
    # through one dimension at a time; without w the zero of that null
    # space, which no block found, is the top eigenvalue
    n = 900
    rng = np.random.default_rng(n)
    q = linalg._start_vector(n)
    w = rng.normal(size=n)
    w -= (w @ q) * q
    w /= np.linalg.norm(w)
    M = -np.outer(q, q) - w_weight * np.outer(w, w)
    steps = count_lanczos_steps(monkeypatch)
    lam, v = largest_eigenvalue(M)
    ref = np.linalg.eigvalsh(M)[-1]
    assert abs(lam - ref) <= 1e-12
    assert steps[0] <= 10
    assert np.linalg.norm(M @ v - lam * v) <= 1e-8 * np.abs(M).sum(axis=1).max()


def test_lanczos_counts_the_couplings_of_a_block_in_its_mass(monkeypatch):
    # the first block is T = [[3.5, 2.5], [2.5, 3.5]], eigenvalues 6 and 1,
    # with mass 3.5^2 + 3.5^2 + 2 * 2.5^2 = 37; the 5.9 outside it has a
    # square of 34.81 < 36, so the iteration ends after those two steps
    n = 70
    rng = np.random.default_rng(3)
    q = linalg._start_vector(n)
    r, w = rng.normal(size=(2, n))
    r -= (r @ q) * q
    r /= np.linalg.norm(r)
    w -= (w @ q) * q + (w @ r) * r
    w /= np.linalg.norm(w)
    u1, u2 = (q + r) / np.sqrt(2.0), (q - r) / np.sqrt(2.0)
    M = 6.0 * np.outer(u1, u1) + np.outer(u2, u2) + 5.9 * np.outer(w, w)
    M = (M + M.T) / 2.0
    steps = count_lanczos_steps(monkeypatch)
    lam, _ = largest_eigenvalue(M)
    assert abs(lam - 6.0) <= 1e-12 * 6.0
    assert steps[0] == 2
