import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clusterpersist.clustering as clustering
import clusterpersist.persistence as persistence
from clusterpersist import (
    ClusteringSolution,
    Dataset,
    PersistenceProfile,
    critical_beta,
    critical_beta_kernel,
    gaussian_kernel,
    gen_rings,
    gen_two_disks,
    kernel_scatter_matrix,
    kmeans,
    largest_eigenvalue,
    load_csv,
    normalize_zscore,
    persistence_profile,
    scatter_matrix,
    spectral_basis,
    spectral_cluster,
)
from helpers import DATA_DIR, blobs, same_partition, sym


def manual_solution(X, assignment, k):
    centroids = np.vstack([X[assignment == j].mean(axis=0) for j in range(k)])
    return ClusteringSolution(
        k=k, assignment=assignment, centroids=centroids, distortion=0.0
    )


def test_critical_beta_unit_case():
    # scatter [[0.5, 0], [0, 0]] has top eigenvalue 1/2, so beta_bar = 1
    X = np.array([[-0.5, 0.0], [0.5, 0.0]])
    sol = manual_solution(X, np.zeros(2, dtype=int), 1)
    cb = critical_beta(sol, Dataset(X))
    assert cb.beta == pytest.approx(1.0, rel=1e-12)
    assert cb.cluster == 0


def test_two_disk_global_resolution_constant():
    # mixture of two unit disks at gap 4R: per-point second moment along the
    # gap axis is R^2/4 + gap^2/4 = 4.25, so beta_bar_1 ~ 1/(17 n R^2)
    n = 2000
    ds = gen_two_disks(1.0, 4.0, n, seed=3)
    sol = kmeans(ds, 1, restarts=1, seed=0)
    cb = critical_beta(sol, ds)
    assert cb.beta == pytest.approx(1.0 / (17.0 * n), rel=0.05)


def test_critical_beta_matches_dense_oracle():
    rng = np.random.default_rng(11)
    ds = Dataset(rng.normal(size=(20, 3)))
    sol = kmeans(ds, 3, restarts=5, seed=2)
    lams = []
    for j in range(3):
        pts = ds.points[sol.members(j)]
        if len(pts) > 1:
            c = pts - pts.mean(axis=0)
            lams.append(np.linalg.eigvalsh(c.T @ c).max())
        else:
            lams.append(0.0)
    cb = critical_beta(sol, ds)
    assert cb.beta == pytest.approx(1.0 / (2.0 * max(lams)), rel=1e-10)
    assert cb.cluster == int(np.argmax(lams))


def test_all_singletons_unbounded():
    ds = Dataset(np.arange(4.0)[:, None])
    sol = kmeans(ds, 4, restarts=2, seed=0)
    with pytest.raises(ValueError, match="resolution unbounded; reduce k_max"):
        critical_beta(sol, ds)


def test_kernel_critical_beta_equals_linear_for_linear_kernel():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(15, 2))
    ds = Dataset(X)
    sol = kmeans(ds, 2, restarts=4, seed=1)
    a = critical_beta(sol, ds)
    b = critical_beta_kernel(sol, X @ X.T)
    assert b.beta == pytest.approx(a.beta, rel=1e-8)
    assert b.cluster == a.cluster


def test_clusters_of_identical_points_are_unbounded():
    # the mean of three copies of 0.1 is not 0.1 in floating point, so a
    # scatter about it would be rounding noise, not zero
    ds = Dataset([[0.1, 0.7]] * 3 + [[5.1, 2.3]] * 3)
    sol = kmeans(ds, 2, restarts=2, seed=0)
    with pytest.raises(ValueError, match="resolution unbounded; reduce k_max"):
        critical_beta(sol, ds)


def test_identical_points_error_names_the_failing_k():
    ds = Dataset(np.full((6, 2), 2.0))
    with pytest.raises(ValueError, match=r"k=1: resolution unbounded"):
        persistence_profile(ds, k_max=3, restarts=2, seed=0)


def test_profile_two_disks():
    ds = gen_two_disks(1.0, 4.0, 1000, seed=1)
    prof = persistence_profile(ds, k_max=5, restarts=6, seed=0)
    assert prof.k_t == 2
    assert set(prof.beta_bar) == set(range(1, 6))
    assert set(prof.v) == set(range(2, 6))
    for k in range(2, 6):
        want = math.log(prof.beta_bar[k]) - math.log(prof.beta_bar[k - 1])
        assert prof.v[k] == pytest.approx(want, abs=1e-12)
    assert set(prof.critical_cluster) == set(range(1, 6))


def test_k_t_is_smallest_argmax():
    ds = blobs([(0, 0), (9, 0), (0, 9)], 0.3, 30, seed=0)
    prof = persistence_profile(ds, k_max=6, restarts=4, seed=0)
    best = max(prof.v.values())
    assert prof.k_t == min(k for k, val in prof.v.items() if val == best)


@pytest.mark.parametrize("c", [0.1, 10.0])
def test_profile_scale_invariance(c, tmp_path):
    ds = blobs([(0, 0), (5, 5), (-4, 6)], 0.5, 40, seed=7)
    base = persistence_profile(ds, k_max=6, restarts=5, seed=3)
    scaled = persistence_profile(Dataset(c * ds.points), k_max=6, restarts=5, seed=3)
    assert scaled.k_t == base.k_t
    for k in base.per_k_solutions:
        assert same_partition(
            base.per_k_solutions[k].assignment, scaled.per_k_solutions[k].assignment
        )
    for k in base.v:
        assert scaled.v[k] == pytest.approx(base.v[k], abs=1e-6)
    for k in base.beta_bar:
        assert scaled.beta_bar[k] * c * c == pytest.approx(base.beta_bar[k], rel=1e-9)


def test_profile_translation_invariance():
    ds = blobs([(0, 0), (6, 1)], 0.4, 35, seed=9)
    shifted = Dataset(ds.points + np.array([100.0, -40.0]))
    a = persistence_profile(ds, k_max=4, restarts=5, seed=1)
    b = persistence_profile(shifted, k_max=4, restarts=5, seed=1)
    assert b.k_t == a.k_t
    for k in a.beta_bar:
        assert b.beta_bar[k] == pytest.approx(a.beta_bar[k], rel=1e-6)


def test_duplication_halves_resolution():
    # duplicating every point doubles each scatter matrix and therefore
    # halves beta_bar under the matching assignment
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 2))
    assignment = np.array([0, 1] * 6)
    dup_X = np.repeat(X, 2, axis=0)
    dup_assignment = np.repeat(assignment, 2)
    b1 = critical_beta(manual_solution(X, assignment, 2), Dataset(X)).beta
    b2 = critical_beta(manual_solution(dup_X, dup_assignment, 2), Dataset(dup_X)).beta
    assert b2 == pytest.approx(b1 / 2.0, rel=1e-12)


def test_k_min_window_matches_full_profile():
    ds = blobs([(0, 0), (8, 0), (0, 8), (8, 8)], 0.4, 30, seed=5)
    full = persistence_profile(ds, k_max=7, restarts=4, seed=2)
    win = persistence_profile(ds, k_max=7, restarts=4, seed=2, k_min=3)
    assert set(win.beta_bar) == set(range(2, 8))
    assert set(win.v) == set(range(3, 8))
    for k in win.beta_bar:
        assert win.beta_bar[k] == full.beta_bar[k]
    best = max(win.v.values())
    assert win.k_t == min(k for k, val in win.v.items() if val == best)


def test_profile_validation():
    ds = Dataset(np.arange(5.0)[:, None])
    with pytest.raises(ValueError, match="k_max must be at least 2"):
        persistence_profile(ds, k_max=1)
    with pytest.raises(ValueError, match="at most N-1"):
        persistence_profile(ds, k_max=5)
    with pytest.raises(ValueError, match="k_min"):
        persistence_profile(ds, k_max=3, k_min=3)
    with pytest.raises(ValueError, match="unknown mode"):
        persistence_profile(ds, k_max=3, mode="rbf")
    with pytest.raises(ValueError, match="positive sigma"):
        persistence_profile(ds, k_max=3, mode="kernel")
    # a negative sigma fails the one Gaussian-width check, _kernel_denominator's
    with pytest.raises(ValueError, match="sigma must be positive with 2 sigma\\^2 finite"):
        persistence_profile(ds, k_max=3, mode="kernel", sigma=-1.0)


def test_rings_kernel_profile_direction():
    """Each ring is a one-dimensional chain whose top kernel-scatter mode
    survives merging, so beta_bar never decreases with k here."""
    ds = normalize_zscore(gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0))
    prof = persistence_profile(
        ds, k_max=6, mode="kernel", sigma=0.01, restarts=8, seed=0
    )
    bs = [prof.beta_bar[k] for k in range(1, 7)]
    assert all(np.isfinite(b) and b > 0 for b in bs)
    assert all(b2 >= b1 * (1.0 - 1e-9) for b1, b2 in zip(bs, bs[1:]))
    assert prof.k_t == 3


def test_rings_at_two_clusters_tie_between_two_groupings():
    """At sigma=0.01 the three rings are disconnected in K, the Laplacian has
    a threefold null space, and the two-column embedding cannot tell which
    ring the outer one belongs with. The first two basis columns are the
    closed-form null vectors of the inner and the middle ring, so the outer
    ring's rows are zero and sit at the origin, equally far from the other
    two rings' normalized rows. Both groupings (outer ring with the inner, or
    with the middle) have exactly the same embedding distortion by
    construction, so the restart order decides, and beta_bar(2) takes one of
    two values. This records the finding; it does not choose a rule for k
    below the number of connected components."""
    ds = normalize_zscore(gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0))
    K = gaussian_kernel(ds, 0.01)
    basis = spectral_basis(K, 6)
    rings = np.repeat([0, 1, 2], 450)
    distortions, betas = set(), {}
    for seed in range(4):
        sol = spectral_cluster(basis, 2, restarts=8, seed=seed)
        outer = sol.assignment[900]
        partner = 0 if sol.assignment[0] == outer else 1
        assert same_partition(sol.assignment, np.where(rings == 2, partner, rings))
        distortions.add(sol.distortion)
        betas.setdefault(partner, set()).add(critical_beta_kernel(sol, K).beta)
    assert len(distortions) == 1
    assert sorted(betas) == [0, 1]
    assert all(len(b) == 1 for b in betas.values())
    (with_inner,), (with_middle,) = betas[0], betas[1]
    assert with_inner == pytest.approx(0.12767, abs=5e-6)
    assert with_middle == pytest.approx(0.12782, abs=5e-6)


def test_profile_csv_layout():
    ds = blobs([(0, 0), (5, 5)], 0.4, 25, seed=1)
    prof = persistence_profile(ds, k_max=4, restarts=3, seed=0)
    text = prof.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "k,beta_bar,log_beta_bar,v"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[3] == ""
    for row in lines[2:]:
        cells = row.split(",")
        beta = float(cells[1])
        assert beta > 0
        assert float(cells[2]) == pytest.approx(math.log(beta), abs=1e-12)
        float(cells[3])


def test_profile_json_round_trip():
    ds = blobs([(0, 0), (5, 5)], 0.4, 25, seed=1)
    prof = persistence_profile(ds, k_max=4, restarts=3, seed=0)
    doc = prof.to_json_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert set(doc) == {"k_min", "k_max", "k_t", "beta_bar", "v", "critical_cluster"}
    assert doc["k_t"] == prof.k_t
    assert doc["k_min"] == 1
    assert doc["k_max"] == 4
    assert doc["beta_bar"]["2"] == prof.beta_bar[2]
    assert doc["v"]["3"] == prof.v[3]


def test_profile_keeps_the_solution_of_every_swept_k():
    ds = blobs([(0, 0), (5, 5)], 0.3, 20, seed=0)
    prof = persistence_profile(ds, k_max=3, restarts=3, seed=0)
    assert set(prof.per_k_solutions) == {1, 2, 3}
    assert all(sol.k == k for k, sol in prof.per_k_solutions.items())
    # a narrowed sweep starts at k_min - 1
    narrow = persistence_profile(ds, k_max=5, restarts=3, seed=0, k_min=3)
    assert set(narrow.per_k_solutions) == {2, 3, 4, 5}


def unpruned_critical_beta(solution, build):
    """beta_bar and the widest cluster with every block of more than one
    member solved: a plain max and the first argmax."""
    lmax = np.zeros(solution.k)
    for j in range(solution.k):
        members = solution.members(j)
        if members.size > 1:
            lmax[j], _ = persistence.largest_eigenvalue(build(members))
    return 1.0 / (2.0 * float(lmax.max())), int(np.argmax(lmax))


def uncached_profile(data, k_max, mode, restarts, seed, sigma=None):
    """The sweep with every k clustered and solved from scratch: a fresh
    Laplacian embedding per k, no eigenvalue reuse across k and no block
    left unsolved. The clusterers are looked up on the persistence module,
    so a test that replaces them there replaces them here too."""
    K = gaussian_kernel(data, sigma) if mode == "kernel" else None
    beta_bar, crit = {}, {}
    for k in range(1, k_max + 1):
        child = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        if mode == "kernel":
            basis = spectral_basis(K, k)
            sol = persistence.spectral_cluster(basis, k, restarts=restarts, seed=child)
            cb = unpruned_critical_beta(sol, lambda m: kernel_scatter_matrix(K, m))
        else:
            sol = persistence.kmeans(data, k, restarts=restarts, seed=child)
            cb = unpruned_critical_beta(sol, lambda m: scatter_matrix(data, m))
        beta_bar[k], crit[k] = cb
    v = {k: math.log(beta_bar[k]) - math.log(beta_bar[k - 1]) for k in range(2, k_max + 1)}
    best = max(v.values())
    k_t = min(k for k, val in v.items() if val == best)
    return PersistenceProfile(
        k_max=k_max, k_min=1, beta_bar=beta_bar, v=v, k_t=k_t, critical_cluster=crit
    )


def counting_eigensolver(monkeypatch):
    """Record the bytes of every matrix the sweep hands to the eigen solver."""
    seen = []

    def counted(M):
        seen.append(np.ascontiguousarray(M).tobytes())
        return largest_eigenvalue(M)

    monkeypatch.setattr(persistence, "largest_eigenvalue", counted)
    return seen


def test_kernel_sweep_matches_uncached_sweep_byte_for_byte(monkeypatch):
    # rings found at k=3 recur whole at k=2 and k=4
    ds = normalize_zscore(gen_rings([1.0, 2.0, 3.0], 100, 0.05, seed=0))
    args = dict(k_max=4, mode="kernel", restarts=4, seed=1, sigma=0.1)
    ref_blocks = counting_eigensolver(monkeypatch)
    ref = uncached_profile(ds, **args)
    eighs = []
    eigh = np.linalg.eigh

    def counted_eigh(M):
        # the Lanczos inner solve calls eigh too; count the embedding's alone
        if sys._getframe(1).f_globals["__name__"] == clustering.__name__:
            eighs.append(M.shape)
        return eigh(M)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    blocks = counting_eigensolver(monkeypatch)
    prof = persistence_profile(ds, **args)
    assert prof.to_csv() == ref.to_csv()
    assert prof.to_json_dict() == ref.to_json_dict()
    # one Laplacian eigendecomposition per sweep, of the whole (N, N)
    # Laplacian since this graph is connected, and each kernel block solved
    # at most once
    assert eighs == [(ds.n, ds.n)]
    assert len(set(blocks)) == len(blocks) <= len(set(ref_blocks))


def test_linear_sweep_matches_uncached_sweep_byte_for_byte():
    ds = blobs([(0, 0), (6, 0), (0, 6), (6, 6)], 0.5, 40, seed=3)
    ref = uncached_profile(ds, k_max=7, mode="linear", restarts=4, seed=2)
    prof = persistence_profile(ds, k_max=7, restarts=4, seed=2)
    assert prof.to_csv() == ref.to_csv()
    assert prof.to_json_dict() == ref.to_json_dict()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name, label_column", [("iris", 4), ("wine", 13), ("wisconsin", 30)])
def test_table_sweep_matches_unpruned_sweep_byte_for_byte(monkeypatch, name, label_column, seed):
    ds = normalize_zscore(load_csv(DATA_DIR / f"{name}.csv", label_column=label_column))
    ref_blocks = counting_eigensolver(monkeypatch)
    ref = uncached_profile(ds, k_max=10, mode="linear", restarts=8, seed=seed)
    blocks = counting_eigensolver(monkeypatch)
    prof = persistence_profile(ds, k_max=10, restarts=8, seed=seed)
    assert prof.to_csv() == ref.to_csv()
    assert prof.to_json_dict() == ref.to_json_dict()
    assert len(set(blocks)) == len(blocks) < len(set(ref_blocks))


def hand_built_sweep(monkeypatch, X, labels):
    """The sweep and its unpruned oracle over one given labelling per k
    (k = 1 .. k_max), and the matrices the sweep solved."""
    ds = Dataset(X)
    sols = {k: manual_solution(X, np.asarray(a), k) for k, a in labels.items()}
    monkeypatch.setattr(persistence, "kmeans", lambda data, k, restarts, seed: sols[k])
    ref = uncached_profile(ds, k_max=len(labels), mode="linear", restarts=1, seed=0)
    solved = counting_eigensolver(monkeypatch)
    prof = persistence_profile(ds, k_max=len(labels))
    assert prof.to_csv() == ref.to_csv()
    assert prof.to_json_dict() == ref.to_json_dict()
    return prof, solved


def test_exact_tie_goes_to_the_first_cluster(monkeypatch):
    # the second cluster mirrors the first through the origin, so their
    # scatters are bitwise equal; both are solved and the first one wins
    Q = np.random.default_rng(3).normal(size=(6, 2)) + [40.0, 10.0]
    X = np.vstack([Q, -Q, [[0.0, 0.0]]])
    labels = {1: [0] * 13, 2: [0] * 12 + [1], 3: [0] * 6 + [1] * 6 + [2]}
    sol = manual_solution(X, np.asarray(labels[3]), 3)
    S = [scatter_matrix(Dataset(X), sol.members(j)) for j in (0, 1)]
    assert S[0].tobytes() == S[1].tobytes()
    prof, solved = hand_built_sweep(monkeypatch, X, labels)
    assert prof.critical_cluster[3] == 0
    assert solved.count(S[0].tobytes()) == 2 and len(solved) == 4


def test_near_tie_solves_both_blocks(monkeypatch):
    # two rank-one scatters diag(2, 0) and diag(2 + 2e-12, 0): each bound
    # is the block's eigenvalue itself, so only the slack keeps the smaller
    # block from being skipped on a 1e-12 margin
    X = np.array([[0.0, 0.0], [2.0, 0.0], [20.0, 0.0], [22.0 + 1e-12, 0.0]])
    prof, solved = hand_built_sweep(monkeypatch, X, {1: [0, 0, 0, 0], 2: [0, 0, 1, 1]})
    assert prof.critical_cluster[2] == 1
    assert len(solved) == 3


def test_singleton_and_zero_scatter_clusters(monkeypatch):
    blob = np.random.default_rng(4).normal(size=(10, 2))
    X = np.vstack([blob, np.full((3, 2), [5.0, -5.0]), [[9.0, 9.0]]])
    labels = {
        1: [0] * 14,
        2: [0] * 10 + [1] * 3 + [0],
        3: [0] * 10 + [1] * 3 + [2],
        4: [0] * 5 + [3] * 5 + [1] * 3 + [2],
    }
    prof, solved = hand_built_sweep(monkeypatch, X, labels)
    zero = np.zeros((2, 2)).tobytes()
    assert zero not in solved
    assert all(prof.critical_cluster[k] == 0 for k in (2, 3))


def test_skipped_block_is_solved_when_it_recurs_as_the_widest(monkeypatch):
    # the small blob is skipped at k=2 beside the wide pair, and at k=3,
    # where the pair is split, it is the widest: a skipped block must not
    # have been cached under any value
    rng = np.random.default_rng(5)
    pair = np.vstack([rng.normal(size=(15, 2)) * 0.2, rng.normal(size=(15, 2)) * 0.2 + [8.0, 0.0]])
    small = rng.normal(size=(12, 2)) * [1.0, 0.6] + [0.0, 30.0]
    X = np.vstack([pair, small])
    labels = {1: [0] * 42, 2: [0] * 30 + [1] * 12, 3: [0] * 15 + [2] * 15 + [1] * 12}
    prof, solved = hand_built_sweep(monkeypatch, X, labels)
    assert prof.critical_cluster == {1: 0, 2: 0, 3: 1}
    sol = manual_solution(X, np.asarray(labels[2]), 2)
    cache = {}
    critical_beta(sol, Dataset(X), cache)
    assert len(cache) == 1


def test_block_the_sweep_sets_aside_still_solves_on_its_own(monkeypatch):
    # at k=5 a kernel block's Frobenius norm is below the k=5 maximum, so the
    # sweep sets it aside; solved on its own, the block must still match
    # eigvalsh
    ds = normalize_zscore(gen_rings([1.0, 2.0, 3.0], 80, 0.01, seed=0))
    solved = counting_eigensolver(monkeypatch)
    prof = persistence_profile(ds, k_max=5, mode="kernel", sigma=0.15, restarts=4, seed=1)
    assert prof.k_t == 2
    K = gaussian_kernel(ds, 0.15)
    stuck = kernel_scatter_matrix(K, prof.per_k_solutions[5].members(0))
    assert stuck.tobytes() not in solved
    lam, _ = largest_eigenvalue(stuck)
    ref = np.linalg.eigvalsh(stuck)[-1]
    assert abs(lam - ref) <= 1e-12 * abs(ref)
    top = 1.0 / (2.0 * prof.beta_bar[5])
    assert persistence._frobenius_bound(stuck) * (1.0 + persistence._SKIP_SLACK) < top


def radius_bound_cases():
    def matrix(kind, n, seed):
        rng = np.random.default_rng(seed)
        if kind == "psd":
            A = rng.normal(size=(n, n))
            return A @ A.T
        if kind == "indefinite":
            return sym(rng, n)
        if kind == "rank-1":
            u = rng.normal(size=n)
            return np.outer(u, u) * rng.choice([-1.0, 1.0])
        return np.zeros((n, n))

    return st.builds(
        lambda kind, n, seed, scale: matrix(kind, n, seed) * scale,
        st.sampled_from(["psd", "indefinite", "rank-1", "zero"]),
        st.integers(1, 12),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-150, 1.0, 1e150]),
    )


@settings(max_examples=300, deadline=None)
@given(radius_bound_cases())
def test_radius_bounds_are_at_least_the_spectral_radius(M):
    n = M.shape[0]
    rho = float(np.abs(np.linalg.eigvalsh(M)).max())
    b = persistence._frobenius_bound(M)
    assert math.isfinite(b)
    assert (b == 0.0) == (rho == 0.0)
    # the bound and eigvalsh each round by a few n*eps
    assert b >= rho * (1.0 - 4.0 * n * np.finfo(float).eps)


def test_block_is_its_member_set_whatever_the_centroids(monkeypatch):
    # the widest cluster A recurs at k=3 with the same members as at k=2 but
    # a shifted centroid; far from the origin that shift would move A's top
    # eigenvalue, but a scatter is taken about its member mean, so the
    # centroids a solution carries reach neither critical_beta nor the
    # sweep's cache
    rng = np.random.default_rng(6)
    a = rng.normal(size=(40, 2)) * [3.0, 1.0]
    b = rng.normal(size=(20, 2)) * 0.2 + [0.0, 30.0]
    c = rng.normal(size=(20, 2)) * 0.2 + [4.0, 30.0]
    X = 1e6 + np.vstack([a, b, c])
    ds = Dataset(X)
    labels = {1: np.zeros(80, int), 2: np.repeat([0, 1, 1], [40, 20, 20]),
              3: np.repeat([0, 1, 2], [40, 20, 20])}
    sols = {k: manual_solution(X, assign, k) for k, assign in labels.items()}
    beta = {k: critical_beta(sol, ds) for k, sol in sols.items()}
    sols[3].centroids[0] += 5e-4
    assert critical_beta(sols[3], ds) == beta[3]
    monkeypatch.setattr(persistence, "kmeans", lambda data, k, restarts, seed: sols[k])
    solved = counting_eigensolver(monkeypatch)
    prof = persistence_profile(ds, k_max=3)
    assert prof.beta_bar == {k: cb.beta for k, cb in beta.items()}
    # A's block, cached at k=2, is not solved again at k=3
    assert solved.count(scatter_matrix(ds, sols[3].members(0)).tobytes()) == 1


def test_kernel_memory_guard_refuses_before_allocating(monkeypatch):
    ds = blobs([(0, 0), (5, 5)], 0.4, 15, seed=1)

    def no_kernel(*args, **kwargs):
        raise AssertionError("kernel built despite the memory guard")

    monkeypatch.setattr(persistence, "gaussian_kernel", no_kernel)
    monkeypatch.setattr(persistence, "_physical_memory", lambda: 10_000)
    need = 3 * 30 * 30 * 8
    with pytest.raises(ValueError, match=rf"N=30 needs at least {need} bytes.*10000 bytes of physical"):
        persistence_profile(ds, k_max=3, mode="kernel", sigma=1.0)
    monkeypatch.setattr(persistence, "_physical_memory", lambda: need)
    with pytest.raises(AssertionError, match="kernel built"):
        persistence_profile(ds, k_max=3, mode="kernel", sigma=1.0)


def test_bad_sweep_arguments_fail_before_any_work(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("sweep started despite bad arguments")

    monkeypatch.setattr(persistence, "gaussian_kernel", no_work)
    monkeypatch.setattr(persistence, "_check_kernel_memory", no_work)
    monkeypatch.setattr(persistence, "kmeans", no_work)
    ds = blobs([(0, 0), (5, 5)], 0.4, 15, seed=1)
    for mode, sigma in (("linear", None), ("kernel", 1.0)):
        with pytest.raises(ValueError, match="restarts must be at least 1"):
            persistence_profile(ds, k_max=3, mode=mode, sigma=sigma, restarts=0)
    # 2 sigma^2 is NaN, inf, inf and 0
    for sigma in (math.nan, math.inf, 1e200, 1e-200):
        with pytest.raises(ValueError, match="2 sigma\\^2 finite and nonzero"):
            persistence_profile(ds, k_max=3, mode="kernel", sigma=sigma)


@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(k_max=3.5), "k_max must be an integer"),
        (dict(k_min=1.5), "k_min must be an integer"),
        (dict(restarts=2.5), "restarts must be an integer"),
        (dict(restarts=True), "restarts must be an integer"),
        (dict(seed=-1), "seed must be non-negative"),
        (dict(seed=1.0), "seed must be an integer"),
    ],
)
def test_non_integer_sweep_arguments_fail_before_the_kernel_is_built(monkeypatch, bad, match):
    built = []
    monkeypatch.setattr(persistence, "gaussian_kernel", lambda *a: built.append(a))
    ds = blobs([(0, 0), (5, 5)], 0.4, 15, seed=1)
    args = dict(k_max=3, mode="kernel", sigma=1.0, restarts=2, seed=0, k_min=1)
    with pytest.raises(ValueError, match=match):
        persistence_profile(ds, **{**args, **bad})
    assert built == []


def test_numpy_integer_sweep_arguments_are_accepted():
    ds = blobs([(0, 0), (5, 5)], 0.4, 15, seed=1)
    args = dict(k_max=4, restarts=2, seed=3, k_min=2)
    want = persistence_profile(ds, **args)
    got = persistence_profile(ds, **{name: np.int64(v) for name, v in args.items()})
    assert got.to_csv() == want.to_csv()
