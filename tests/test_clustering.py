import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterpersist import (
    ClusteringSolution,
    Dataset,
    gaussian_kernel,
    gen_rings,
    kmeans,
    normalize_zscore,
    spectral_basis,
    spectral_cluster,
)
from helpers import blobs, same_partition


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


def test_kmeans_fills_every_cluster_on_duplicated_points():
    X = np.repeat(np.array([[0.0, 0.0], [10.0, 10.0]]), 6, axis=0)
    sol = kmeans(Dataset(X), 3, restarts=3, seed=0)
    assert np.bincount(sol.assignment, minlength=3).min() >= 1


def test_kmeans_invariant_to_point_order():
    ds = blobs([(0, 0), (7, 7)], 0.5, 30, seed=6)
    perm = np.random.default_rng(1).permutation(ds.n)
    permuted = Dataset(ds.points[perm], name="permuted")
    a = kmeans(ds, 2, restarts=6, seed=3)
    b = kmeans(permuted, 2, restarts=6, seed=3)
    assert same_partition(a.assignment[perm], b.assignment)
    assert a.distortion == pytest.approx(b.distortion, rel=1e-12)


@given(st.integers(0, 10**6), st.integers(5, 25), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_kmeans_solution_invariants(seed, n, k):
    k = min(k, n)
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.normal(size=(n, 2)))
    sol = kmeans(ds, k, restarts=3, seed=seed)
    assert np.bincount(sol.assignment, minlength=k).min() >= 1
    for j in range(k):
        np.testing.assert_allclose(
            sol.centroids[j], ds.points[sol.members(j)].mean(axis=0), atol=1e-9
        )
    d2 = ((ds.points - sol.centroids[sol.assignment]) ** 2).sum(axis=1)
    assert sol.distortion == pytest.approx(float(ds.weights @ d2), rel=1e-9, abs=1e-12)
    # each point sits with its nearest centroid
    full = ((ds.points[:, None, :] - sol.centroids[None, :, :]) ** 2).sum(axis=2)
    assert np.all(d2 <= full.min(axis=1) + 1e-9)


def test_solution_requires_nonempty_clusters():
    with pytest.raises(ValueError, match="nonempty"):
        ClusteringSolution(
            k=2,
            assignment=np.zeros(3, dtype=int),
            centroids=np.zeros((2, 1)),
            distortion=0.0,
        )


def test_spectral_separates_exact_blocks():
    K = np.zeros((9, 9))
    K[:5, :5] = 1.0
    K[5:, 5:] = 1.0
    sol = spectral_cluster(K, 2, restarts=4, seed=0)
    assert same_partition(sol.assignment, [0] * 5 + [1] * 4)


def test_spectral_single_cluster():
    sol = spectral_cluster(np.ones((6, 6)), 1, restarts=2, seed=0)
    assert np.all(sol.assignment == 0)


def test_spectral_isolated_point_error():
    K = np.eye(4)
    K[2, 2] = 0.0
    with pytest.raises(ValueError, match="isolated point"):
        spectral_cluster(K, 2)


def test_spectral_validation():
    with pytest.raises(ValueError, match="k must be positive"):
        spectral_cluster(np.eye(3), 0)
    with pytest.raises(ValueError, match="k exceeds"):
        spectral_cluster(np.eye(3), 4)
    with pytest.raises(ValueError, match="at least 3 columns"):
        spectral_cluster(np.ones((4, 4)), 3, basis=spectral_basis(np.ones((4, 4)), 2))
    with pytest.raises(ValueError, match="must have 4 rows"):
        spectral_cluster(np.ones((4, 4)), 2, basis=spectral_basis(np.ones((5, 5)), 2))


def test_spectral_recovers_rings():
    ds = normalize_zscore(gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0))
    K = gaussian_kernel(ds, 0.01)
    sol = spectral_cluster(K, 3, restarts=8, seed=0)
    assert same_partition(sol.assignment, ds.labels)


def test_spectral_deterministic():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 2))
    K = gaussian_kernel(Dataset(X), 1.0)
    a = spectral_cluster(K, 3, restarts=5, seed=2)
    b = spectral_cluster(K, 3, restarts=5, seed=2)
    np.testing.assert_array_equal(a.assignment, b.assignment)
    assert a.distortion == b.distortion
    # a wider precomputed basis embeds with the same first k columns
    c = spectral_cluster(K, 3, restarts=5, seed=2, basis=spectral_basis(K, 6))
    np.testing.assert_array_equal(c.assignment, a.assignment)
    assert c.centroids.tobytes() == a.centroids.tobytes()
    assert c.distortion == a.distortion
