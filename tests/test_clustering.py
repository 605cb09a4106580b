import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterpersist.clustering as clustering
from clusterpersist import (
    ClusteringSolution,
    Dataset,
    gaussian_kernel,
    gen_rings,
    gen_spirals,
    kmeans,
    normalize_zscore,
    spectral_basis,
    spectral_cluster,
)
from helpers import allocation_peak, blobs, child_env, same_partition


def test_kmeans_single_cluster_is_mean():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3))
    sol = kmeans(Dataset(X), 1, restarts=2, seed=0)
    np.testing.assert_allclose(sol.centroids[0], X.mean(axis=0), atol=1e-12)
    want = ((X - X.mean(axis=0)) ** 2).sum(axis=1).mean()
    assert sol.distortion == pytest.approx(want, rel=1e-12)


def test_kmeans_k_equals_n_zero_distortion():
    X = np.array([[0.0], [1.0], [2.0], [3.5]])
    sol = kmeans(Dataset(X), 4, restarts=4, seed=1)
    assert sol.distortion == pytest.approx(0.0, abs=1e-15)
    assert sorted(sol.assignment.tolist()) == [0, 1, 2, 3]


def brute_force_two_clusters(X, w):
    n = X.shape[0]
    best = np.inf
    for bits in range(1, 2 ** (n - 1)):
        mask = np.array([(bits >> i) & 1 for i in range(n)], dtype=bool)
        d = 0.0
        for m in (mask, ~mask):
            c = X[m].mean(axis=0)
            d += float(w[m] @ ((X[m] - c) ** 2).sum(axis=1))
        best = min(best, d)
    return best


@pytest.mark.parametrize("seed", range(5))
def test_kmeans_matches_exhaustive_bipartition(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(8, 2))
    ds = Dataset(X)
    sol = kmeans(ds, 2, restarts=40, seed=seed)
    best = brute_force_two_clusters(X, ds.weights)
    assert sol.distortion == pytest.approx(best, rel=1e-9)


def test_kmeans_recovers_separated_blobs():
    ds = blobs([(0, 0), (8, 0), (0, 8), (8, 8)], 0.3, 50, seed=4)
    sol = kmeans(ds, 4, restarts=8, seed=0)
    assert same_partition(sol.assignment, ds.labels)


def test_kmeans_deterministic():
    ds = blobs([(0, 0), (6, 0), (0, 6)], 0.4, 40, seed=2)
    a = kmeans(ds, 3, restarts=6, seed=9)
    b = kmeans(ds, 3, restarts=6, seed=9)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    np.testing.assert_array_equal(a.centroids, b.centroids)
    assert a.distortion == b.distortion


def test_kmeans_validation():
    ds = Dataset(np.arange(3.0)[:, None])
    with pytest.raises(ValueError, match="k must be positive"):
        kmeans(ds, 0)
    with pytest.raises(ValueError, match="k exceeds"):
        kmeans(ds, 4)
    with pytest.raises(ValueError, match="restarts"):
        kmeans(ds, 2, restarts=0)
    # numbers.Integral, not bool: True is not one restart, 2.0 not two clusters
    bad = ((2.0, 1, "k"), (True, 1, "k"), (2, True, "restarts"), (2, 2.0, "restarts"))
    for k, restarts, name in bad:
        with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
            kmeans(ds, k, restarts=restarts)
    # None would draw fresh entropy from the OS, True run as seed 1, and
    # numpy refuses 1.5 and -1 with errors of its own
    for seed in (None, True, 1.5, -1):
        with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got"):
            kmeans(ds, 2, seed=seed)
    assert kmeans(ds, 2, seed=np.int64(3)).distortion == kmeans(ds, 2, seed=3).distortion


@pytest.mark.parametrize("scale", [1e153])
def test_kmeans_rejects_points_whose_squared_distances_overflow(scale):
    # at 1e153 the squared norms are finite but the D^2 total overflows to
    # inf; larger points fail earlier, in Dataset (test_dataset.py)
    ds = Dataset(np.random.default_rng(0).normal(size=(50, 2)) * scale)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="overflow .* rescale the data"):
            kmeans(ds, 3)


def test_kmeans_fills_every_cluster_on_duplicated_points():
    X = np.repeat(np.array([[0.0, 0.0], [10.0, 10.0]]), 6, axis=0)
    sol = kmeans(Dataset(X), 3, restarts=3, seed=0)
    assert np.bincount(sol.assignment, minlength=3).min() >= 1


def test_kmeans_invariant_to_point_order():
    ds = blobs([(0, 0), (7, 7)], 0.5, 30, seed=6)
    perm = np.random.default_rng(1).permutation(ds.n)
    permuted = Dataset(ds.points[perm])
    a = kmeans(ds, 2, restarts=6, seed=3)
    b = kmeans(permuted, 2, restarts=6, seed=3)
    assert same_partition(a.assignment[perm], b.assignment)
    assert a.distortion == pytest.approx(b.distortion, rel=1e-12)


@given(st.integers(0, 10**6), st.integers(5, 25), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_kmeans_solution_invariants(seed, n, k):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    for ds in (Dataset(X), Dataset(np.asfortranarray(X))):
        sol = kmeans(ds, k, restarts=3, seed=seed)
        assert np.bincount(sol.assignment, minlength=k).min() >= 1
        # bitwise: critical_beta scatters each cluster about its member mean,
        # which is the scatter about the solution's centroid only if they agree
        for j in range(k):
            assert np.array_equal(sol.centroids[j], ds.points[sol.members(j)].mean(axis=0))
        d2 = ((ds.points - sol.centroids[sol.assignment]) ** 2).sum(axis=1)
        assert sol.distortion == pytest.approx(float(ds.weights @ d2), rel=1e-9, abs=1e-12)
        # each point sits with its nearest centroid
        full = ((ds.points[:, None, :] - sol.centroids[None, :, :]) ** 2).sum(axis=2)
        assert np.all(d2 <= full.min(axis=1) + 1e-9)


def test_kmeans_centroids_are_member_means_on_repeated_points(monkeypatch):
    # points that repeat a few distinct rows leave clusters empty, so Lloyd
    # repairs them, also in the iteration where its assignment settles
    repairs = count_repairs(monkeypatch)
    rng = np.random.default_rng(0)
    for t in range(300):
        n = int(rng.integers(4, 30))
        m = int(rng.integers(1, n))
        d = int(rng.integers(1, 4))
        k = int(rng.integers(2, min(8, n) + 1))
        ds = Dataset(rng.normal(size=(m, d))[rng.integers(0, m, size=n)])
        with warnings.catch_warnings():
            # a run that hits the cap also returns its member means
            warnings.simplefilter("ignore", RuntimeWarning)
            sol = kmeans(ds, k, restarts=2, seed=t)
        for j in range(k):
            mean = ds.points[sol.members(j)].mean(axis=0)
            assert np.array_equal(sol.centroids[j], mean), f"dataset {t}, cluster {j}"
    assert repairs


def test_solution_requires_nonempty_clusters():
    with pytest.raises(ValueError, match="nonempty"):
        ClusteringSolution(
            k=2,
            assignment=np.zeros(3, dtype=int),
            centroids=np.zeros((2, 1)),
            distortion=0.0,
        )


def test_solution_rejects_labels_of_clusters_beyond_k():
    # a third cluster that k=2 does not count would be left out of every
    # scatter, and critical_beta would answer for the first two alone
    with pytest.raises(ValueError, match="cluster labels must lie below k=2"):
        ClusteringSolution(
            k=2,
            assignment=np.array([0, 0, 1, 1, 2, 2]),
            centroids=np.zeros((2, 1)),
            distortion=0.0,
        )


def test_solution_rejects_centroids_without_one_row_per_cluster():
    for centroids in (np.zeros((3, 1)), np.zeros((1, 2)), np.zeros(2)):
        with pytest.raises(ValueError, match="centroids must be a 2-d array of k=2 rows"):
            ClusteringSolution(
                k=2,
                assignment=np.array([0, 0, 1, 1]),
                centroids=centroids,
                distortion=0.0,
            )


def test_spectral_separates_exact_blocks():
    K = np.zeros((9, 9))
    K[:5, :5] = 1.0
    K[5:, 5:] = 1.0
    sol = spectral_cluster(spectral_basis(K, 2), 2, restarts=4, seed=0)
    assert same_partition(sol.assignment, [0] * 5 + [1] * 4)


def test_spectral_single_cluster():
    sol = spectral_cluster(spectral_basis(np.ones((6, 6)), 1), 1, restarts=2, seed=0)
    assert np.all(sol.assignment == 0)


def test_spectral_isolated_point_error():
    K = np.eye(4)
    K[2, 2] = 0.0
    with pytest.raises(ValueError, match="isolated point"):
        spectral_basis(K, 2)


def test_spectral_validation():
    # k must name columns the basis has; a basis never has more than N
    basis = spectral_basis(np.eye(3), 5)
    assert basis.shape == (3, 3)
    for k in (0, -1, 4):
        with pytest.raises(ValueError, match=r"k must lie in 1\.\.3"):
            spectral_cluster(basis, k)
    with pytest.raises(ValueError, match=r"k must lie in 1\.\.2"):
        spectral_cluster(spectral_basis(np.ones((4, 4)), 2), 3)
    for k in (2.0, True):
        with pytest.raises(ValueError, match="k must be an integer, got"):
            spectral_cluster(basis, k)
    for seed in (None, True, 1.5, -1):
        with pytest.raises(ValueError, match=r"seed must be an integer >= 0, got"):
            spectral_cluster(basis, 2, seed=seed)


def test_spectral_recovers_rings():
    ds = normalize_zscore(gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0))
    K = gaussian_kernel(ds, 0.01)
    sol = spectral_cluster(spectral_basis(K, 3), 3, restarts=8, seed=0)
    assert same_partition(sol.assignment, ds.labels)


def test_spectral_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 2))
    K = gaussian_kernel(Dataset(X), 1.0)
    a = spectral_cluster(spectral_basis(K, 3), 3, restarts=5, seed=2)
    b = spectral_cluster(spectral_basis(K, 3), 3, restarts=5, seed=2)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    assert a.distortion == b.distortion
    # a wider basis embeds with the same first k columns
    c = spectral_cluster(spectral_basis(K, 6), 3, restarts=5, seed=2)
    np.testing.assert_array_equal(c.assignment, a.assignment)
    assert c.centroids.tobytes() == a.centroids.tobytes()
    assert c.distortion == a.distortion


@pytest.fixture(scope="module")
def rings_K():
    """The Gaussian K of the gate 4a rings: three components of 450 points."""
    return gaussian_kernel(normalize_zscore(gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0)), 0.01)


# Reference Laplacian basis: one dense eigh of the whole symmetrized
# Laplacian, the basis of every K before the per-component solve.
def oracle_laplacian(K):
    K = np.asarray(K, dtype=float)
    s = 1.0 / np.sqrt(K.sum(axis=1))
    L = np.eye(len(K)) - s[:, None] * K * s[None, :]
    return (L + L.T) / 2.0


def oracle_dense_basis(K, k_max):
    _, V = np.linalg.eigh(oracle_laplacian(K))
    return V[:, :k_max].copy()


def three_blocks():
    """A Gaussian K of three far-apart clouds of 9, 23 and 14 points, their
    rows shuffled, and its components as sorted index arrays in order of
    their lowest index; entries across clouds underflow to exactly 0."""
    rng = np.random.default_rng(11)
    sizes, centers = (9, 23, 14), (0.0, 100.0, 200.0)
    X = np.concatenate([rng.normal(size=(n, 2)) + c for n, c in zip(sizes, centers)])
    labels = np.repeat([0, 1, 2], sizes)
    perm = rng.permutation(len(X))
    X, labels = X[perm], labels[perm]
    comps = sorted((np.flatnonzero(labels == c) for c in range(3)), key=lambda c: c[0])
    return gaussian_kernel(Dataset(X), 1.0), comps


@pytest.mark.parametrize("case", ["spirals", "gaussian"])
def test_connected_basis_is_bitwise_one_dense_eigh(case):
    if case == "spirals":
        K = gaussian_kernel(normalize_zscore(gen_spirals(3, 450, 0.02, seed=0)), 0.08)
    else:
        K = gaussian_kernel(Dataset(np.random.default_rng(4).normal(size=(80, 3))), 1.0)
    assert spectral_basis(K, 6).tobytes() == oracle_dense_basis(K, 6).tobytes()


@pytest.mark.parametrize("case", ["rings", "three-blocks"])
def test_disconnected_basis_is_the_closed_form_null_space_then_eigenvectors(case):
    if case == "rings":
        K = gaussian_kernel(normalize_zscore(gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0)), 0.01)
        comps = [np.arange(c * 450, (c + 1) * 450) for c in range(3)]
    else:
        K, comps = three_blocks()
    m, k_max = len(comps), 6
    B = spectral_basis(K, k_max)
    assert B.shape == (len(K), k_max)
    deg = K.sum(axis=1)
    for j, c in enumerate(comps):
        # D_c^(1/2) 1_c over its norm, the square root of the degree sum
        want = np.zeros(len(K))
        want[c] = np.sqrt(deg[c]) / math.sqrt(deg[c].sum())
        assert B[:, j].tobytes() == want.tobytes()
    # every column lives on one component
    for j in range(k_max):
        assert sum(np.any(B[c, j] != 0) for c in comps) == 1
    np.testing.assert_allclose(B.T @ B, np.eye(k_max), rtol=0, atol=1e-12)
    L = oracle_laplacian(K)
    LB = L @ B
    rayleigh = np.einsum("ij,ij->j", B, LB)
    for j in range(m, k_max):
        assert np.linalg.norm(LB[:, j] - rayleigh[j] * B[:, j]) <= 1e-10
    np.testing.assert_allclose(rayleigh, np.linalg.eigvalsh(L)[:k_max], rtol=0, atol=1e-12)


def oracle_component_basis(K, k_max):
    """The basis of a disconnected K from decomposing every component: one
    eigh per component, merged by a stable sort on the eigenvalue."""
    deg = K.sum(axis=1)
    s = 1.0 / np.sqrt(deg)
    comps = clustering._components((K != 0) | (K.T != 0))
    basis = np.zeros((len(K), min(k_max, len(K))))
    for j, c in enumerate(comps[: basis.shape[1]]):
        basis[c, j] = np.sqrt(deg[c]) / math.sqrt(deg[c].sum())
    extra = basis.shape[1] - len(comps)
    if extra <= 0:
        return basis
    found = []
    for j, c in enumerate(comps):
        w, V = np.linalg.eigh(clustering._laplacian(K[np.ix_(c, c)], s[c]))
        null, U = basis[c, j], V[:, 1 : 1 + extra]
        U = U - np.outer(null, null @ U)
        U /= np.linalg.norm(U, axis=0)
        found += [(value, c, u) for value, u in zip(w[1 : 1 + extra].tolist(), U.T)]
    found.sort(key=lambda f: f[0])
    for j, (_, c, u) in enumerate(found[:extra], start=len(comps)):
        basis[c, j] = u
    return basis


def random_block_kernel(seed):
    """A block-diagonal K of 2 to 6 blocks of 2 to 39 points, its rows
    shuffled. Each block is a Gaussian kernel of a cloud of random spread,
    rounded to multiples of 2^-10, so every degree is an exact sum in any
    order. About 30% of the blocks are a twin of an earlier one, the same
    block times 1/4, 1 or 4: its Laplacian is bitwise the same, so its
    eigenvalues tie exactly, but at 1/4 or 4 its mean degree differs, and
    so may its place in the visiting order. A rounded block
    may itself fall apart into several components."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(int(rng.integers(2, 7))):
        if blocks and rng.random() < 0.3:
            scale = rng.choice([0.25, 1.0, 4.0])
            blocks.append(blocks[int(rng.integers(len(blocks)))] * scale)
            continue
        X = rng.normal(size=(int(rng.integers(2, 40)), 2)) * rng.uniform(0.3, 3.0)
        d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        B = np.round(np.exp(-d2 / 2.0) * 1024.0) / 1024.0
        B = np.maximum(B, B.T)
        np.fill_diagonal(B, 1.0)
        blocks.append(B)
    perm = rng.permutation(sum(len(B) for B in blocks))
    K = np.zeros((len(perm), len(perm)))
    start = 0
    for B in blocks:
        idx = np.sort(perm[start : start + len(B)])
        K[np.ix_(idx, idx)] = B
        start += len(B)
    return K


def spy_eigensolvers(monkeypatch):
    """Records the shape of every np.linalg.eigh and cholesky argument."""
    calls = {"eigh": [], "cholesky": []}
    for name, calls_of in calls.items():
        solver = getattr(np.linalg, name)

        def spy(M, solver=solver, calls_of=calls_of):
            calls_of.append(M.shape)
            return solver(M)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


@pytest.mark.parametrize("n", [1, 2, 180, 181, 182, 362, 363, 364])
def test_laplacian_in_place_is_bitwise_the_whole_array_expression(n):
    # one tile of _TILE = 181 rows, then two and three; K is not symmetric,
    # so the tile pairing shows, and holds zeros of both signs, whose I - S K S
    # entries are +0.0
    assert clustering._TILE == 181
    rng = np.random.default_rng(n)
    K = rng.uniform(size=(n, n))
    K[rng.uniform(size=(n, n)) < 0.3] = 0.0
    K[rng.uniform(size=(n, n)) < 0.1] = -0.0
    s = rng.uniform(0.5, 2.0, size=n)
    L = np.eye(n) - s[:, None] * K * s[None, :]
    want = (L + L.T) / 2.0
    B = K.copy()
    got = clustering._laplacian(B, s)
    assert got is B
    assert got.tobytes() == want.tobytes()


def test_connected_basis_holds_two_arrays_beside_k():
    # the Laplacian, built in place in one copy of K, and eigh's eigenvectors
    ds = normalize_zscore(gen_spirals(3, 200, 0.02, seed=0))
    K = gaussian_kernel(ds, 0.08)
    assert len(clustering._components(K != 0)) == 1
    before = K.copy()
    basis, peak = allocation_peak(spectral_basis, K, 6)
    assert peak <= 2.1 * K.nbytes
    assert K.tobytes() == before.tobytes()
    assert basis.tobytes() == oracle_dense_basis(K, 6).tobytes()


def test_disconnected_basis_is_bitwise_the_all_components_oracle(monkeypatch):
    calls = spy_eigensolvers(monkeypatch)
    twins = skipped = 0
    for seed in range(100):
        K = random_block_kernel(seed)
        comps = clustering._components(K != 0)
        m = len(comps)
        assert m >= 2
        # twin components have bitwise equal Laplacians, so equal spectra
        s = 1.0 / np.sqrt(K.sum(axis=1))
        laplacians = [
            clustering._laplacian(K[np.ix_(c, c)], s[c]).tobytes() for c in comps if len(c) > 1
        ]
        twins += len(set(laplacians)) < len(laplacians)
        for k_max in range(m - 1, m + 7):
            want = oracle_component_basis(K, k_max)
            del calls["eigh"][:]
            assert spectral_basis(K, k_max).tobytes() == want.tobytes(), (seed, k_max)
            skipped += m - len(calls["eigh"]) if k_max > m else 0
    assert twins >= 10
    assert skipped > 0


def test_disconnected_basis_decomposes_only_the_components_that_reach_it(monkeypatch, rings_K):
    calls = spy_eigensolvers(monkeypatch)
    B = spectral_basis(rings_K, 6)
    # all three columns past the null space come from the outer ring, the
    # sparsest, visited first; one Cholesky each excludes the other two
    assert calls == {"eigh": [(450, 450)], "cholesky": [(450, 450), (450, 450)]}
    monkeypatch.undo()
    assert B.tobytes() == oracle_component_basis(rings_K, 6).tobytes()
    # up to m columns the null space is all there is to find
    calls = spy_eigensolvers(monkeypatch)
    K, _ = three_blocks()
    for k_max in (1, 2, 3):
        assert spectral_basis(K, k_max).shape == (len(K), k_max)
    assert calls == {"eigh": [], "cholesky": []}


def test_disconnected_basis_is_the_same_when_no_component_is_excluded(monkeypatch, rings_K):
    # the gate only skips: with every Cholesky failing, every component is
    # decomposed and the basis does not move
    def fail(M):
        raise np.linalg.LinAlgError("not positive definite")

    cases = [(rings_K, 6)] + [(random_block_kernel(seed), 8) for seed in range(20)]
    want = [oracle_component_basis(K, k_max) for K, k_max in cases]
    monkeypatch.setattr(np.linalg, "cholesky", fail)
    for (K, k_max), B in zip(cases, want):
        assert spectral_basis(K, k_max).tobytes() == B.tobytes()


@pytest.mark.parametrize("bad", [0, -1, 2.5, 3.0, True, "3", None])
def test_spectral_basis_refuses_a_k_max_that_is_not_a_positive_integer(bad):
    connected = gaussian_kernel(Dataset(np.random.default_rng(1).normal(size=(10, 2))), 1.0)
    disconnected, _ = three_blocks()
    for K in (connected, disconnected):
        with pytest.raises(ValueError, match=r"k_max must be an integer >= 1"):
            spectral_basis(K, bad)
    # k_max is checked before K is read
    with pytest.raises(ValueError, match=r"k_max must be an integer >= 1"):
        spectral_basis(np.ones((2, 3)), bad)


def test_spectral_basis_takes_numpy_integers():
    K, _ = three_blocks()
    assert spectral_basis(K, np.int64(5)).tobytes() == spectral_basis(K, 5).tobytes()


def test_components_are_taken_on_the_symmetrized_pattern():
    # a link held only below the diagonal joins two blocks, as it does in
    # the symmetrized Laplacian, so the basis is the one dense eigh
    K = np.zeros((7, 7))
    K[:4, :4] = 1.0
    K[4:, 4:] = 1.0
    K[6, 0] = 1e-14
    assert spectral_basis(K, 3).tobytes() == oracle_dense_basis(K, 3).tobytes()


def test_components_of_an_asymmetric_support_are_built_tile_by_tile():
    # a K over several tiles whose support is not symmetric: links held on
    # one side of the diagonal only, within tiles and across them, join
    # blocks that the other side keeps apart
    rng = np.random.default_rng(5)
    n = 2 * clustering._TILE + 50
    labels = rng.integers(0, 9, size=n)
    K = np.where(labels[:, None] == labels[None, :], rng.uniform(0.5, 1.0, size=(n, n)), 0.0)
    K[rng.random((n, n)) < 0.3] = 0.0
    np.fill_diagonal(K, 1.0)
    for _ in range(4):
        i, j = rng.integers(0, n, size=2)
        K[i, j], K[j, i] = 1e-12, 0.0
    linked = clustering._support(K)
    want = (K != 0) | (K.T != 0)
    assert linked.tobytes() == want.tobytes()
    got, expected = clustering._components(linked), clustering._components(want)
    assert [c.tolist() for c in got] == [c.tolist() for c in expected]
    assert 1 < len(got) < 9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectral_basis_refuses_a_K_that_is_not_finite(bad):
    K = np.ones((5, 5))
    K[1, 3] = bad
    with pytest.raises(ValueError, match="K holds NaN or inf"):
        spectral_basis(K, 2)


def test_spectral_basis_refuses_row_sums_that_overflow():
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="K has row sums that overflow"):
            spectral_basis(np.full((4, 4), 1e308), 2)


@pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
def test_spectral_basis_refuses_a_K_that_is_not_square(shape):
    with pytest.raises(ValueError, match=r"K must be a square matrix, got shape"):
        spectral_basis(np.ones(shape), 2)


# Reference k-means: the mask-per-cluster Lloyd means and the row-sum
# k-means++ scoring that the hot path must reproduce bit for bit.
def oracle_sq_distances(X, C):
    d2 = (X * X).sum(axis=1)[:, None] + (C * C).sum(axis=1)[None, :] - 2.0 * (X @ C.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def oracle_kmeanspp_init(X, k, rng):
    n = X.shape[0]
    trials = 2 + int(math.log(k)) if k > 1 else 1
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = oracle_sq_distances(X, centers[:1])[:, 0]
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            cand = np.array([rng.integers(n)])
        else:
            cand = rng.choice(n, size=trials, p=d2 / total)
        best_pot, best_c, best_d2 = np.inf, cand[0], None
        for c in cand:
            alt = np.minimum(d2, ((X - X[c]) ** 2).sum(axis=1))
            pot = alt.sum()
            if pot < best_pot:
                best_pot, best_c, best_d2 = pot, c, alt
        centers[j] = X[best_c]
        d2 = best_d2
    return centers


def oracle_repair_empty(X, assign, means, counts):
    for j in np.flatnonzero(counts == 0):
        dist = ((X - means[assign]) ** 2).sum(axis=1)
        dist[counts[assign] <= 1] = -np.inf
        donor = int(np.argmax(dist))
        counts[assign[donor]] -= 1
        assign[donor] = j
        counts[j] = 1
        means[j] = X[donor]


def oracle_lloyd(X, centers, k, cap=300):
    assign = np.full(X.shape[0], -1)
    for _ in range(cap):
        new_assign = np.argmin(oracle_sq_distances(X, centers), axis=1)
        counts = np.bincount(new_assign, minlength=k)
        if np.any(counts == 0):
            # the repair measures against the means of the new assignment,
            # held apart from the centers this assignment was measured to
            means = np.zeros((k, X.shape[1]))
            for j in np.flatnonzero(counts):
                means[j] = X[new_assign == j].mean(axis=0)
            oracle_repair_empty(X, new_assign, means, counts)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = np.vstack([X[assign == j].mean(axis=0) for j in range(k)])
    return assign, centers


def oracle_kmeans(ds, k, restarts, seed, cap=300):
    X = ds.points
    best = None
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        assign, centers = oracle_lloyd(X, oracle_kmeanspp_init(X, k, rng), k, cap)
        distortion = float((ds.weights * oracle_sq_distances(X, centers).min(axis=1)).sum())
        if best is None or distortion < best[0]:
            best = (distortion, assign, centers)
    return best


def assert_matches_oracle(sol, want):
    distortion, assign, centers = want
    assert sol.assignment.dtype == assign.dtype
    np.testing.assert_array_equal(sol.assignment, assign)
    assert sol.centroids.tobytes() == centers.tobytes()
    assert sol.distortion == distortion


def count_repairs(monkeypatch):
    """Record each call of the empty-cluster repair."""
    repairs = []
    real = clustering._repair_empty

    def counted(*args):
        repairs.append(1)
        return real(*args)

    monkeypatch.setattr(clustering, "_repair_empty", counted)
    return repairs


def test_d2_sampler_is_generator_choice():
    # the same indices and the same generator state as choice; a numpy whose
    # choice samples another way fails here
    rng = np.random.default_rng(11)
    for case in range(3000):
        seed = int(rng.integers(2**32))
        n = 2 if case % 5 == 0 else int(rng.integers(2, 80))
        d2 = rng.exponential(size=n) * 10.0 ** rng.integers(-8, 9)
        if case % 5 == 1:
            d2[rng.random(n) < 0.6] = 0.0
            d2[rng.integers(n)] = rng.exponential()
        elif case % 5 == 2:
            d2 = np.zeros(n)
            d2[rng.integers(n)] = 10.0 ** rng.integers(-8, 9)
        elif case % 5 == 3:
            # the first uniform lands exactly on the step of the cdf, where
            # searchsorted's side decides the index
            while (u := np.random.default_rng(seed).random()) < 0.5:
                seed += 1
            d2 = np.array([u, 1.0 - u])
        n, total, trials = len(d2), d2.sum(), int(rng.integers(1, 8))
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = want_rng.choice(n, size=trials, p=d2 / total)
        # as a block of one row
        block, totals = d2[None], np.array([total])
        got = clustering._sample_d2(block, totals, trials, [got_rng], np.empty((1, n)))[0]
        assert got.dtype == want.dtype and np.array_equal(got, want), f"case {case}"
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, f"case {case}"


def test_d2_sampler_draws_each_row_of_a_block_as_its_generator_alone():
    # a (B, N) block of restarts, each row with its own generator: row b
    # gives that generator's choice and leaves it as choice does. A row of
    # total 0 takes one integers(N) draw, in each of its trials slots
    rng = np.random.default_rng(12)
    for case in range(400):
        runs, n, trials = int(rng.integers(1, 9)), int(rng.integers(2, 60)), int(rng.integers(1, 8))
        d2 = rng.exponential(size=(runs, n)) * 10.0 ** rng.integers(-8, 9, size=(runs, 1))
        d2[rng.random((runs, n)) < 0.3] = 0.0
        d2[np.arange(runs), rng.integers(n, size=runs)] = rng.exponential(size=runs)
        if case % 2:
            d2[rng.integers(runs)] = 0.0
        total = d2.sum(axis=1)
        seeds = rng.integers(2**32, size=runs).tolist()
        gens = [np.random.default_rng(s) for s in seeds]
        got = clustering._sample_d2(d2, total, trials, gens, np.empty((runs, n)))
        assert got.shape == (runs, trials)
        for b, (seed, gen) in enumerate(zip(seeds, gens)):
            want_rng = np.random.default_rng(seed)
            if total[b] > 0:
                want = want_rng.choice(n, size=trials, p=d2[b] / total[b])
            else:
                want = np.full(trials, want_rng.integers(n))
            assert got.dtype == want.dtype and np.array_equal(got[b], want), f"case {case}, row {b}"
            assert gen.bit_generator.state == want_rng.bit_generator.state, f"case {case}, row {b}"
        assert case % 2 == 0 or (total == 0).any()


@pytest.mark.parametrize(
    "n, d, seed", [(569, 2, 0), (101, 7, 20), (569, 8, 0), (178, 13, 0), (569, 30, 0)]
)
def test_seeding_a_batch_is_seeding_each_run_alone(n, d, seed):
    # each run's first distances are its own N x 1 product. One N x 7
    # product of the first centers rounds 228 of the 707 entries otherwise
    # at N = 101, d = 7 and seed 20 (OpenBLAS SkylakeX kernels), and there
    # moves a center of one k = 40 run. Every seventh row is a copy of the
    # first
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) + rng.integers(0, 4, size=(n, 1)) * 3.0
    X[::7] = X[0]
    ds = Dataset(X)
    XT = np.ascontiguousarray(X.T) if d <= clustering._TRANSPOSED_MAX_D else None
    for k in (2, 5, 40):
        children = np.random.SeedSequence(seed + k).spawn(7)
        gens = [np.random.default_rng(child) for child in children]
        got = clustering._kmeanspp_init(X, ds.sq_norms, XT, k, gens)
        assert got.shape == (7, k, d)
        for child, gen, centers in zip(children, gens, got):
            want_rng = np.random.default_rng(child)
            assert centers.tobytes() == oracle_kmeanspp_init(X, k, want_rng).tobytes(), f"k={k}"
            assert gen.bit_generator.state == want_rng.bit_generator.state


def test_seeding_a_repeated_candidate_in_every_slot_is_seeding_it_once():
    # where every point is a center already the D^2 total is 0 and a row
    # draws one candidate, which fills its trials slots: every slot scores
    # alike, the first wins, and the centers and the generator come out as
    # the reference, which scores that candidate once
    X = np.repeat(np.random.default_rng(5).normal(size=(3, 2)), 4, axis=0)
    ds = Dataset(X)
    children = np.random.SeedSequence(8).spawn(3)
    gens = [np.random.default_rng(child) for child in children]
    got = clustering._kmeanspp_init(X, ds.sq_norms, np.ascontiguousarray(X.T), 5, gens)
    for child, gen, centers in zip(children, gens, got):
        want_rng = np.random.default_rng(child)
        assert centers.tobytes() == oracle_kmeanspp_init(X, 5, want_rng).tobytes()
        assert gen.bit_generator.state == want_rng.bit_generator.state


def test_candidate_scores_are_bitwise_the_row_sums():
    rng = np.random.default_rng(3)
    for d in range(1, 41):
        X = rng.normal(size=(500, d)) * rng.uniform(0.1, 10.0, size=d)
        XT = np.ascontiguousarray(X.T) if d <= clustering._TRANSPOSED_MAX_D else None
        # scratch arrays shared by every candidate set, as the draws share them
        out = np.empty((6, 500))
        diff = np.empty(X.shape if XT is None else out.shape)
        for cand in ([0], [17, 499, 17], [3] * 6, rng.integers(0, 500, size=6), [499, 0]):
            cand = np.asarray(cand)
            got = clustering._score_candidates(X, XT, cand, out, diff)
            assert got.shape == (len(cand), 500)
            for row, c in zip(got, cand):
                want = ((X - X[c]) ** 2).sum(axis=1)
                assert row.tobytes() == want.tobytes(), f"d={d}, cand={cand.tolist()}, c={c}"


@pytest.mark.parametrize("d", [1, 2, 7, 8, 13, 30])
@pytest.mark.parametrize("k", [1, 2, 40, 110])
def test_cluster_means_are_bitwise_the_member_means(d, k):
    # coordinates of mixed scales make the order of the additions show in
    # the last bits; the labels leave clusters 2, 5, 8, ... empty
    rng = np.random.default_rng(1000 * d + k)
    n = 600
    X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, d))
    assign = rng.integers(0, k, size=n)
    assign[assign % 3 == 2] = 0
    # in cluster 0 one column of -0.0 only and one of -0.0 and +0.0: numpy
    # sums both from +0.0, as bincount does, so both means are +0.0
    members = assign == 0
    X[members, 0] = -0.0
    if d > 1:
        X[members, 1] = np.where(rng.random(members.sum()) < 0.5, -0.0, 0.0)
    counts = np.bincount(assign, minlength=k)
    assert counts[0] >= 2 and (k < 3 or (counts == 0).any())
    XT = np.ascontiguousarray(X.T)
    for clusters in (np.arange(k), np.arange(0, k, 2)):
        out = np.full((k, d), np.nan)
        got = clustering._cluster_means(XT, assign, counts, clusters, out)
        assert got is out
        for j in range(k):
            if counts[j] and j in clusters:
                want = X[assign == j].mean(axis=0)
                assert got[j].tobytes() == want.tobytes(), f"cluster {j}"
            else:
                assert np.isnan(got[j]).all(), f"cluster {j}"


@pytest.mark.parametrize("d", [1, 2, 13])
def test_cluster_means_of_a_batch_are_each_runs_member_means(d):
    # the labels of three runs one after another, those of run b offset by
    # b k, as Lloyd hands a batch over; run 1 leaves cluster 3 empty
    rng = np.random.default_rng(d)
    n, k, runs = 300, 7, 3
    X = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, d))
    assign = rng.integers(0, k, size=(runs, n))
    assign[1][assign[1] == 3] = 0
    counts = np.stack([np.bincount(labels, minlength=k) for labels in assign])
    labels = (assign + np.arange(0, runs * k, k)[:, None]).reshape(-1)
    out = np.full((runs * k, d), np.nan)
    XT = np.ascontiguousarray(X.T)
    got = clustering._cluster_means(XT, labels, counts.reshape(-1), np.arange(runs * k), out)
    assert got is out
    for b in range(runs):
        for j in range(k):
            if counts[b, j]:
                want = X[assign[b] == j].mean(axis=0)
                assert got[b * k + j].tobytes() == want.tobytes(), f"run {b}, cluster {j}"
            else:
                assert np.isnan(got[b * k + j]).all(), f"run {b}, cluster {j}"


_KMEANS_CHILD = """
import numpy as np
from clusterpersist import Dataset, kmeans
rng = np.random.default_rng(0)
for d in (2, 13):
    sol = kmeans(Dataset(rng.normal(size=(40_000, d))), 1, restarts=1, seed=0)
    print(d, sol.distortion.hex(), sol.centroids.tobytes().hex())
"""


def test_kmeans_bits_do_not_depend_on_the_blas_thread_count():
    # a threaded BLAS dot splits a sum this long between its threads, and
    # so rounds it otherwise than one thread does: a distortion taken as
    # weights @ closest changes its last bit at d = 13
    outputs = []
    for threads in ("1", "2"):
        res = subprocess.run(
            [sys.executable, "-c", _KMEANS_CHILD],
            capture_output=True,
            text=True,
            env=child_env(OPENBLAS_NUM_THREADS=threads),
        )
        assert res.returncode == 0, res.stderr
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("d", [2, 5, 13, 30])
@pytest.mark.parametrize("k", [1, 3, 40])
def test_kmeans_is_bitwise_the_reference(d, k, monkeypatch):
    rng = np.random.default_rng(100 * d + k)
    ds = Dataset(rng.normal(size=(300, d)) + rng.integers(0, 4, size=(300, 1)) * 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = kmeans(ds, k, restarts=3, seed=k)
    assert_matches_oracle(sol, oracle_kmeans(ds, k, restarts=3, seed=k))


def grid_blobs(side, sd, n_per, seed):
    """Tight Gaussian blobs on a side x side grid of unit spacing."""
    return blobs([(float(i), float(j)) for i in range(side) for j in range(side)], sd, n_per, seed)


def lloyd_scratch(n, k):
    """The scratch stack kmeans hands to _lloyd for one run: one N x k
    matrix for k = 1 or one block of k columns, None (Hamerly bounds) past
    that."""
    return np.empty((1, n, k)) if k == 1 or 8 * n * k <= clustering._BLOCK_BYTES else None


def lloyd_matches_the_reference(ds, centers, cap=300):
    """Whether _lloyd, handed the center set as a stack of one run and the
    scratch kmeans would hand it, gives the reference's assignment, means
    and nearest distances bit for bit."""
    X, k = ds.points, len(centers)
    XT = np.ascontiguousarray(X.T)
    runs = clustering._lloyd(X, ds.sq_norms, XT, centers[None], lloyd_scratch(ds.n, k))
    assert [len(a) for a in runs] == [1, 1, 1]
    assign, means, closest = (a[0] for a in runs)
    want_assign, want_means = oracle_lloyd(X, centers, k, cap)
    return (
        np.array_equal(assign, want_assign)
        and means.tobytes() == want_means.tobytes()
        and closest.tobytes() == oracle_sq_distances(X, want_means).min(axis=1).tobytes()
    )


@pytest.mark.parametrize("case", ["grid-k99", "d13-k60", "d13-k1"])
def test_kmeans_is_bitwise_the_reference_across_row_blocks(case):
    # past one block Lloyd measures only the rows its bounds cannot settle,
    # in row blocks; the oracle measures every distance in one product. A
    # single column (k = 1) split into blocks goes through gemv and changes
    # a few distances, by too little to move the distortion, so every
    # distance is compared.
    if case == "grid-k99":
        ds, k = grid_blobs(10, 0.1, 50, seed=1), 99
    else:
        k = 60 if case == "d13-k60" else 1
        # halves of 40,000 rows split on an aligned row and keep their bits;
        # a split of 40,003 rows changes a distance
        n = 3000 if k > 1 else 40_003
        rng = np.random.default_rng(n + k)
        ds = Dataset(rng.normal(size=(n, 13)) + rng.integers(0, 6, size=(n, 1)) * 2.0)
    # more rows than one block of k columns holds
    assert ds.n > clustering._BLOCK_BYTES // (8 * k)
    assert lloyd_matches_the_reference(ds, oracle_kmeanspp_init(ds.points, k, np.random.default_rng(k)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = kmeans(ds, k, restarts=2, seed=k)
    assert_matches_oracle(sol, oracle_kmeans(ds, k, restarts=2, seed=k))


def lattice_case(d, k, seed):
    """Points past one block of k columns on a lattice of step 1/8, in blobs
    about k + 3 hubs, every tenth row an exact copy of another and the last
    rows exactly midway between a seed center and the nearest other one, so
    that distances tie; and k k-means++ seed centers, the last a copy of the
    first, so that its cluster starts empty."""
    rng = np.random.default_rng(seed)
    n = clustering._BLOCK_BYTES // (8 * k) + 40
    hubs = rng.uniform(0.0, 6.0, size=(k + 3, d))
    X = np.round((hubs[rng.integers(0, k + 3, size=n)] + rng.normal(scale=0.5, size=(n, d))) * 8) / 8
    X[::10] = X[rng.integers(0, n, size=len(X[::10]))]
    centers = oracle_kmeanspp_init(X, k, rng)
    if k > 1:
        centers[-1] = centers[0]
        for i in range(min(k - 1, 20)):
            gaps = ((centers[: k - 1] - centers[i]) ** 2).sum(axis=1)
            gaps[gaps == 0] = np.inf
            X[-1 - i] = (centers[i] + centers[int(np.argmin(gaps))]) / 2
    return Dataset(X), centers


@pytest.mark.parametrize("d", [1, 2, 3, 13])
@pytest.mark.parametrize("k", [1, 2, 40, 99])
def test_lloyd_bounds_are_bitwise_the_reference(d, k, monkeypatch):
    ds, centers = lattice_case(d, k, seed=10 * d + k)
    repairs = count_repairs(monkeypatch)
    if k > 1:
        # rows that tie at their minimum before the first update
        D = oracle_sq_distances(ds.points, centers)
        assert ((D == D.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        assert lloyd_scratch(ds.n, k) is None
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert lloyd_matches_the_reference(ds, centers)
        sol = kmeans(ds, k, restarts=2, seed=d)
    assert len(repairs) >= (k > 1)
    assert_matches_oracle(sol, oracle_kmeans(ds, k, restarts=2, seed=d))


@pytest.mark.parametrize(
    "x, centers",
    [
        # an exact tie, broken by moving center 0 2^-40 away
        ([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]]),
        # center 1 is one rounding step nearer as computed, and the step of
        # center 1 one ulp away makes the two entries tie; in exact
        # arithmetic the distance grows by 2e-12 only, so bounds without
        # the rounding margin E would settle the point at center 1
        ([10000.06234957915], [[9998.92102141001], [10001.203677755342]]),
    ],
)
def test_bounds_leave_a_tie_and_a_near_tie_to_be_measured(x, centers):
    X = np.array([x, np.full(len(x), 5.0)])
    centers = np.array(centers)
    bounds = clustering._Bounds(X, Dataset(X).sq_norms, centers)
    first = np.argmin(oracle_sq_distances(X, centers), axis=1)
    assert bounds.nearest.tolist() == first.tolist()
    j = 0 if len(x) == 2 else 1
    moved = centers.copy()
    moved[j, 0] = moved[j, 0] + 2.0**-40 if j == 0 else np.nextafter(moved[j, 0], np.inf)
    nearest = bounds.update(moved, np.array([j]), centers[[j]])
    want = np.argmin(oracle_sq_distances(X, moved), axis=1)
    assert want[0] != first[0]
    assert nearest.tolist() == want.tolist()


def test_bounds_settle_every_point_when_the_centers_barely_move(monkeypatch):
    # two tight blobs far apart, an odd number of points: after a tiny step
    # of one center no row is measured again, and the distances to the
    # moved center are taken anew
    ds = Dataset(blobs([(0, 0), (50, 0)], 0.1, 51, seed=4).points[:101])
    X, x2 = ds.points, ds.sq_norms
    centers = np.array([X[:51].mean(axis=0), X[51:].mean(axis=0)])
    bounds = clustering._Bounds(X, x2, centers)
    moved = centers.copy()
    moved[1, 1] += 1e-6
    measured = []
    real = clustering._sq_distances
    monkeypatch.setattr(
        clustering, "_sq_distances", lambda *a, **kw: measured.append(len(a[0])) or real(*a, **kw)
    )
    nearest = bounds.update(moved, np.array([1]), centers[[1]])
    assert measured == []
    D = oracle_sq_distances(X, moved)
    assert nearest.tolist() == np.argmin(D, axis=1).tolist()
    assert bounds.distances(moved).tobytes() == D.min(axis=1).tobytes()


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_lloyd_bounds_keep_the_reference_at_the_cap(cap, monkeypatch):
    ds, centers = lattice_case(2, 40, seed=cap)
    monkeypatch.setattr(clustering, "_LLOYD_CAP", cap)
    with pytest.warns(RuntimeWarning, match=f"k=40: Lloyd iterations stopped at the cap of {cap} "):
        assert lloyd_matches_the_reference(ds, centers, cap)


def test_lloyd_bounds_stop_when_the_assignment_cycles():
    # as in the test below, past one block of two columns: copies of one
    # point whose mean is not bitwise the point swap clusters on each pass;
    # the run stops after two updates, as the reference does at a cap of 2
    n = clustering._BLOCK_BYTES // 16 + 1
    ds = Dataset(np.tile([1.4580206835369587, 1.9602583164499647], (n, 1)))
    with pytest.warns(RuntimeWarning, match="k=2: Lloyd iterations stopped in a cycle of two"):
        assert lloyd_matches_the_reference(ds, ds.points[:2].copy(), cap=2)


def test_kmeans_past_one_block_keeps_no_n_by_k_matrix():
    ds, k = grid_blobs(10, 0.08, 100, seed=0), 100
    sol, peak = allocation_peak(kmeans, ds, k, 2, 0)
    assert peak < 8 * ds.n * k
    assert_matches_oracle(sol, oracle_kmeans(ds, k, restarts=2, seed=0))


_BOUNDS_CHILD = """
import json, sys, warnings
from helpers import openblas_corename
out = {"core": openblas_corename()}
if out["core"] == sys.argv[1]:
    from test_clustering import lattice_case, lloyd_matches_the_reference
    warnings.simplefilter("error", RuntimeWarning)
    out["matches"] = [
        lloyd_matches_the_reference(*lattice_case(d, k, seed=10 * d + k))
        for d, k in ((2, 40), (3, 2), (13, 40), (13, 99))
    ]
print(json.dumps(out))
"""


def test_lloyd_bounds_are_the_reference_under_a_second_blas_kernel():
    # the bounds hold for any gemm's rounding, but the rows they leave to be
    # measured must come out of a block with the bits of the whole product;
    # the Haswell kernels round the last row of an odd block otherwise from
    # eight coordinates on, and the cases at d = 13 have an odd N. A BLAS
    # that cannot switch to Haswell skips
    want = "Haswell"
    res = subprocess.run(
        [sys.executable, "-c", _BOUNDS_CHILD, want],
        capture_output=True,
        text=True,
        env=child_env(OPENBLAS_CORETYPE=want),
    )
    assert res.returncode == 0, res.stderr
    child = json.loads(res.stdout.strip().splitlines()[-1])
    if child["core"] != want:
        pytest.skip(f"OpenBLAS did not switch to {want} kernels; its core is {child['core']}")
    assert child["matches"] == [True] * 4


def copies_case(seed, n, exact):
    """Two points of the plane, repeated n // 2 and n - n // 2 times in a
    random order; the first has integer coordinates when exact, so that
    the mean of its copies is the point. At k = 3 the third k-means++
    center repeats one of the two, and its cluster starts empty."""
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(2, 2))
    if exact:
        points[0] = rng.integers(-4, 5, size=2)
    X = np.repeat(points, [n // 2, n - n // 2], axis=0)
    return Dataset(X[rng.permutation(n)])


def spy_lloyd(monkeypatch):
    """Record the result of each _lloyd call, one per batch of restarts."""
    batches = []
    real = clustering._lloyd

    def spy(*args):
        batches.append(real(*args))
        return batches[-1]

    monkeypatch.setattr(clustering, "_lloyd", spy)
    return batches


@pytest.mark.parametrize(
    "case, seed, cap, sizes",
    [
        # every restart repairs an empty cluster, then cycles between two
        # assignments and stops on the third pass
        ("cycle", 7, 4, [3, 3, 1]),
        # every restart repairs an empty cluster and then settles
        ("repair", 0, 300, [4, 3]),
        # overlapping blobs: some restarts settle within the cap, the
        # others hit it and stay in the batch without them
        ("cap", 4, 12, [3, 3, 1]),
    ],
)
def test_kmeans_restarts_are_the_reference_across_batches(case, seed, cap, sizes, monkeypatch):
    # 7 restarts at k = 3 go in batches of as many N x 3 matrices as one
    # block holds: 3 at N = 3001 and 2804, 4 at N = 2667. Every restart's
    # assignment, means and distances, and the best of them, are the
    # reference's run alone, at the same cap
    if case == "cap":
        ds = blobs([(0, 0), (2, 0), (0, 2), (2, 2)], 1.0, 701, seed=seed)
    else:
        ds = copies_case(seed, 3001 if case == "cycle" else 2667, exact=case == "repair")
    X, k = ds.points, 3
    assert clustering._BLOCK_BYTES // (8 * ds.n * k) == sizes[0]
    monkeypatch.setattr(clustering, "_LLOYD_CAP", cap)
    batches, repairs = spy_lloyd(monkeypatch), count_repairs(monkeypatch)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = kmeans(ds, k, restarts=7, seed=seed)
    assert [len(assign) for assign, _, _ in batches] == sizes
    runs = zip(*(np.concatenate(part) for part in zip(*batches)))
    for child, (assign, means, closest) in zip(np.random.SeedSequence(seed).spawn(7), runs):
        centers = oracle_kmeanspp_init(X, k, np.random.default_rng(child))
        want_assign, want_means = oracle_lloyd(X, centers, k, cap)
        assert np.array_equal(assign, want_assign)
        assert means.tobytes() == want_means.tobytes()
        assert closest.tobytes() == oracle_sq_distances(X, want_means).min(axis=1).tobytes()
    assert_matches_oracle(sol, oracle_kmeans(ds, k, restarts=7, seed=seed, cap=cap))
    assert all(w.category is RuntimeWarning for w in caught)
    stops = [str(w.message).removesuffix(" before the assignment settled") for w in caught]
    if case == "cycle":
        assert stops == ["k=3: Lloyd iterations stopped in a cycle of two assignments"] * 7
        assert len(repairs) >= 7
    elif case == "repair":
        assert stops == [] and len(repairs) >= 7
    else:
        assert 0 < len(stops) < 7
        assert set(stops) == {f"k=3: Lloyd iterations stopped at the cap of {cap}"}


_BATCH_CHILD = """
import json, sys, warnings
import numpy as np
from helpers import openblas_corename
out = {"core": openblas_corename()}
if out["core"] == sys.argv[1]:
    from clusterpersist import Dataset, clustering, kmeans
    from test_clustering import oracle_kmeans
    warnings.simplefilter("error", RuntimeWarning)
    out["matches"], out["batches"] = [], []
    for n, k in ((2001, 5), (1001, 9), (801, 10)):
        rng = np.random.default_rng(n + k)
        ds = Dataset(rng.normal(size=(n, 13)) + rng.integers(0, 6, size=(n, 1)) * 2.0)
        want = oracle_kmeans(ds, k, restarts=7, seed=k)
        sol = kmeans(ds, k, restarts=7, seed=k)
        out["batches"].append(clustering._BLOCK_BYTES // (8 * n * k))
        out["matches"].append(
            sol.assignment.tolist() == want[1].tolist()
            and sol.centroids.tobytes() == want[2].tobytes()
            and sol.distortion == want[0]
        )
print(json.dumps(out))
"""


def test_kmeans_batches_are_the_reference_under_a_second_blas_kernel():
    # a batch's stacked product must give each restart the bits of its own
    # N x k product. The Haswell kernels round the last row of an odd
    # number of rows otherwise from eight coordinates on, so N is odd and
    # d = 13. A BLAS that cannot switch to Haswell skips
    want = "Haswell"
    res = subprocess.run(
        [sys.executable, "-c", _BATCH_CHILD, want],
        capture_output=True,
        text=True,
        env=child_env(OPENBLAS_CORETYPE=want),
    )
    assert res.returncode == 0, res.stderr
    child = json.loads(res.stdout.strip().splitlines()[-1])
    if child["core"] != want:
        pytest.skip(f"OpenBLAS did not switch to {want} kernels; its core is {child['core']}")
    # the 7 restarts in batches of 3, 3 and 4 restarts
    assert child["batches"] == [3, 3, 4]
    assert child["matches"] == [True] * 3


def test_kmeans_restart_count_does_not_size_the_scratch():
    # a matrix-path shape whose batch holds 8 restarts. Past one batch only
    # the list of child seeds grows with the restart count; a batch's
    # distance stack, its finishing temporary and the seeding scores of its
    # candidates are each at most about one block, however many run
    ds, k = blobs([(0, 0), (3, 0), (0, 3)], 1.0, 333, seed=1), 4
    batch = clustering._BLOCK_BYTES // (8 * ds.n * k)
    assert batch == 8
    peaks = {r: allocation_peak(kmeans, ds, k, r, 0)[1] for r in (1, batch, 200)}
    assert peaks[200] - peaks[batch] < clustering._BLOCK_BYTES / 2
    assert peaks[200] - peaks[1] < 4 * clustering._BLOCK_BYTES
    # a batch of every restart would make a stack of 24 blocks
    assert 200 * ds.n * k * 8 > 24 * clustering._BLOCK_BYTES


def test_kmeans_at_k_1_runs_one_restart(monkeypatch):
    # every restart gives the one cluster of all points, so the first wins
    ds = blobs([(0, 0), (4, 1)], 1.0, 50, seed=2)
    seeded = []
    real = clustering._kmeanspp_init
    monkeypatch.setattr(clustering, "_kmeanspp_init", lambda *a: seeded.append(1) or real(*a))
    sol = kmeans(ds, 1, restarts=5, seed=3)
    assert len(seeded) == 1
    assert_matches_oracle(sol, oracle_kmeans(ds, 1, restarts=5, seed=3))


def test_lloyd_stops_when_the_assignment_cycles(monkeypatch):
    # 17 copies of one point at k = 2. The mean of the copies is not bitwise
    # the point, so the singleton the empty-cluster repair makes is nearer to
    # every copy; all move to it, the other cluster empties, and the labels
    # swap on every pass. Each assignment fixes the next, so the run cycles.
    ds = Dataset(np.tile([-0.5439981304035021, -0.04405912149974852], (17, 1)))
    calls = []
    real = clustering._sq_distances
    monkeypatch.setattr(
        clustering, "_sq_distances", lambda *args, **kw: calls.append(1) or real(*args, **kw)
    )
    with pytest.warns(RuntimeWarning, match="k=2: Lloyd iterations stopped in a cycle of two"):
        sol = kmeans(ds, 2, restarts=2, seed=42)
    # per restart one seeding distance and at most four passes
    assert len(calls) <= 2 * 5
    assert sorted(np.bincount(sol.assignment).tolist()) == [1, 16]
    for j in range(2):
        assert np.array_equal(sol.centroids[j], ds.points[sol.members(j)].mean(axis=0))


@pytest.mark.parametrize("d", [2, 13])
def test_kmeans_with_empty_cluster_repair_is_bitwise_the_reference(d, monkeypatch):
    # 10 distinct points, each four times: seeding past 10 centers repeats a
    # point, the repeated center wins no ties and its cluster starts empty
    rng = np.random.default_rng(d)
    ds = Dataset(np.repeat(rng.normal(size=(10, d)), 4, axis=0))
    repairs = count_repairs(monkeypatch)
    sol = kmeans(ds, 12, restarts=3, seed=0)
    assert repairs
    assert_matches_oracle(sol, oracle_kmeans(ds, 12, restarts=3, seed=0))


def test_lloyd_cap_warns_and_keeps_the_result(monkeypatch, capsys):
    ds = blobs([(0, 0), (3, 0), (0, 3)], 1.0, 40, seed=5)
    monkeypatch.setattr(clustering, "_LLOYD_CAP", 1)
    with pytest.warns(RuntimeWarning, match=r"k=3: Lloyd iterations stopped at the cap of 1 "):
        sol = kmeans(ds, 3, restarts=2, seed=4)
    assert_matches_oracle(sol, oracle_kmeans(ds, 3, restarts=2, seed=4, cap=1))
    assert capsys.readouterr().out == ""
