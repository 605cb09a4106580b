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


def oracle_repair_empty(X, assign, means, counts):
    for j in np.flatnonzero(counts == 0):
        dist = ((X - means[assign]) ** 2).sum(axis=1)
        dist[counts[assign] <= 1] = -np.inf
        donor = int(np.argmax(dist))
        counts[assign[donor]] -= 1
        assign[donor] = j
        counts[j] = 1
        means[j] = X[donor]


def oracle_lloyd(X, centers, k, cap=300, updates=None):
    """updates, when given, collects (assignment before, assignment after,
    centers after) for each update of the centers."""
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
        before, assign = assign, new_assign
        centers = np.vstack([X[assign == j].mean(axis=0) for j in range(k)])
        if updates is not None:
            updates.append((before, assign, centers))
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
        got = clustering._sample_d2(d2, total, trials, got_rng, np.empty(n))
        assert got.dtype == want.dtype and np.array_equal(got, want), f"case {case}"
        assert got_rng.bit_generator.state == want_rng.bit_generator.state, f"case {case}"


def test_candidate_scores_are_bitwise_the_row_sums():
    rng = np.random.default_rng(3)
    for d in range(1, 41):
        X = rng.normal(size=(500, d)) * rng.uniform(0.1, 10.0, size=d)
        XT = clustering._scoring_copy(X)
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


@pytest.mark.parametrize("case", ["grid-k99", "d13-k60", "d13-k1"])
def test_kmeans_is_bitwise_the_reference_across_row_blocks(case):
    # Lloyd refreshes its distance matrix in row blocks and, after the first
    # two passes, only the columns of the clusters that changed; the oracle
    # measures every distance in one product. A single column (k = 1) split
    # into blocks goes through gemv and changes a few distances, by too
    # little to move the distortion, so every distance is compared.
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
    X = ds.points
    centers = oracle_kmeanspp_init(X, k, np.random.default_rng(k))
    assign, means, closest = clustering._lloyd(X, ds.sq_norms, centers, k)
    want_assign, want_means = oracle_lloyd(X, centers, k)
    np.testing.assert_array_equal(assign, want_assign)
    assert means.tobytes() == want_means.tobytes()
    assert closest.tobytes() == oracle_sq_distances(X, want_means).min(axis=1).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sol = kmeans(ds, k, restarts=2, seed=k)
    assert_matches_oracle(sol, oracle_kmeans(ds, k, restarts=2, seed=k))


def test_lloyd_refreshes_only_the_columns_of_touched_clusters(monkeypatch):
    # on a grid of blobs, after the first two passes only a few clusters gain
    # or lose a point; each pass must measure just their columns, never one
    # column alone (gemv), and in blocks of two or more rows
    ds, k = grid_blobs(6, 0.15, 60, seed=1), 34
    X, x2 = ds.points, ds.sq_norms
    centers = clustering._kmeanspp_init(X, x2, clustering._scoring_copy(X), k, np.random.default_rng(k))
    calls = []
    real = clustering._sq_distances

    def spied(Xb, x2b, C):
        calls.append((len(Xb), C.copy()))
        return real(Xb, x2b, C)

    monkeypatch.setattr(clustering, "_sq_distances", spied)
    assign, _, _ = clustering._lloyd(X, x2, centers, k)
    updates = []
    want_assign, _ = oracle_lloyd(X, centers, k, updates=updates)
    np.testing.assert_array_equal(assign, want_assign)
    # one pass per update, plus the first against the seeds
    passes, rows = [], 0
    for n_rows, C in calls:
        assert n_rows >= 2 and len(C) >= 2
        if rows == 0:
            passes.append(C)
        assert C.tobytes() == passes[-1].tobytes()
        rows = (rows + n_rows) % ds.n
    assert rows == 0
    assert len(passes) == len(updates) + 1 >= 4
    assert passes[0].tobytes() == centers.tobytes()
    for p, (before, after, means) in enumerate(updates, start=1):
        moved = before != after
        touched = np.union1d(before[moved], after[moved])
        touched = touched[touched >= 0]
        assert passes[p].tobytes() == means[touched].tobytes(), f"pass {p + 1}"
        if p >= 2:
            assert len(touched) < k
    assert sum(len(C) for C in passes[2:]) < k * len(passes[2:]) / 4


def test_lloyd_stops_when_the_assignment_cycles(monkeypatch):
    # 17 copies of one point at k = 2. The mean of the copies is not bitwise
    # the point, so the singleton the empty-cluster repair makes is nearer to
    # every copy; all move to it, the other cluster empties, and the labels
    # swap on every pass. Each assignment fixes the next, so the run cycles.
    ds = Dataset(np.tile([-0.5439981304035021, -0.04405912149974852], (17, 1)))
    calls = []
    real = clustering._sq_distances
    monkeypatch.setattr(
        clustering, "_sq_distances", lambda *args: calls.append(1) or real(*args)
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
