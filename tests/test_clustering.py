import math
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


def oracle_repair_empty(X, assign, centers, counts):
    for j in np.flatnonzero(counts == 0):
        dist = ((X - centers[assign]) ** 2).sum(axis=1)
        dist[counts[assign] <= 1] = -np.inf
        donor = int(np.argmax(dist))
        counts[assign[donor]] -= 1
        assign[donor] = j
        counts[j] = 1
        centers[j] = X[donor]


def oracle_lloyd(X, centers, k, cap=300):
    assign = np.full(X.shape[0], -1)
    for _ in range(cap):
        new_assign = np.argmin(oracle_sq_distances(X, centers), axis=1)
        counts = np.bincount(new_assign, minlength=k)
        if np.any(counts == 0):
            centers = np.vstack(
                [X[new_assign == j].mean(axis=0) if counts[j] else centers[j] for j in range(k)]
            )
            oracle_repair_empty(X, new_assign, centers, counts)
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
        distortion = float(ds.weights @ oracle_sq_distances(X, centers).min(axis=1))
        if best is None or distortion < best[0]:
            best = (distortion, assign, centers)
    return best


def assert_matches_oracle(sol, want):
    distortion, assign, centers = want
    assert sol.assignment.dtype == assign.dtype
    np.testing.assert_array_equal(sol.assignment, assign)
    assert sol.centroids.tobytes() == centers.tobytes()
    assert sol.distortion == distortion


def spy_final_distances(monkeypatch):
    """Record, per Lloyd run, whether it handed its last distances back for
    the distortion (True) or left kmeans to recompute them (False)."""
    reused = []
    real = clustering._lloyd

    def spy(*args):
        out = real(*args)
        reused.append(out[2] is not None)
        return out

    monkeypatch.setattr(clustering, "_lloyd", spy)
    return reused


def test_candidate_sq_distances_are_bitwise_the_row_sums():
    rng = np.random.default_rng(3)
    for d in range(1, 41):
        X = rng.normal(size=(500, d)) * rng.uniform(0.1, 10.0, size=d)
        XT = clustering._scoring_copy(X)
        for c in (0, 17, 499):
            got = clustering._candidate_sq_distances(X, XT, c)
            assert np.array_equal(got, ((X - X[c]) ** 2).sum(axis=1)), f"d={d}, c={c}"


@pytest.mark.parametrize("d", [2, 5, 13, 30])
@pytest.mark.parametrize("k", [1, 3, 40])
def test_kmeans_is_bitwise_the_reference(d, k, monkeypatch):
    rng = np.random.default_rng(100 * d + k)
    ds = Dataset(rng.normal(size=(300, d)) + rng.integers(0, 4, size=(300, 1)) * 3.0)
    reused = spy_final_distances(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = kmeans(ds, k, restarts=3, seed=k)
    assert reused == [True] * 3
    assert_matches_oracle(sol, oracle_kmeans(ds, k, restarts=3, seed=k))


@pytest.mark.parametrize("d", [2, 13])
def test_kmeans_with_empty_cluster_repair_is_bitwise_the_reference(d, monkeypatch):
    # 10 distinct points, each four times: seeding past 10 centers repeats a
    # point, the repeated center wins no ties and its cluster starts empty
    rng = np.random.default_rng(d)
    ds = Dataset(np.repeat(rng.normal(size=(10, d)), 4, axis=0))
    repairs = []

    def counted(*args):
        repairs.append(1)
        return real(*args)

    real = clustering._repair_empty
    monkeypatch.setattr(clustering, "_repair_empty", counted)
    reused = spy_final_distances(monkeypatch)
    sol = kmeans(ds, 12, restarts=3, seed=0)
    assert repairs
    # every run's final iteration repaired, so its distances were stale
    assert reused == [False] * 3
    assert_matches_oracle(sol, oracle_kmeans(ds, 12, restarts=3, seed=0))


def test_lloyd_cap_warns_and_keeps_the_result(monkeypatch, capsys):
    ds = blobs([(0, 0), (3, 0), (0, 3)], 1.0, 40, seed=5)
    monkeypatch.setattr(clustering, "_LLOYD_CAP", 1)
    reused = spy_final_distances(monkeypatch)
    with pytest.warns(RuntimeWarning, match=r"k=3: Lloyd iterations stopped at the cap of 1 "):
        sol = kmeans(ds, 3, restarts=2, seed=4)
    assert reused == [False] * 2
    assert_matches_oracle(sol, oracle_kmeans(ds, 3, restarts=2, seed=4, cap=1))
    assert capsys.readouterr().out == ""
