import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterpersist import (
    Dataset,
    anneal,
    da_fixed_point,
    free_energy,
    gen_gaussian_mixture,
    gen_two_disks,
    gibbs_associations,
    hessian_quadratic_form,
    kmeans,
    largest_eigenvalue,
    posterior_covariance,
)
import clusterpersist.annealing as annealing
from helpers import blobs


def line_mixture(seed):
    """Two well-separated gaussians along a random direction."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=2)
    u /= np.linalg.norm(u)
    a = rng.normal(size=(300, 2)) * 0.6
    b = rng.normal(size=(250, 2)) * 0.8 + 4.0 * u
    return Dataset(np.vstack([a, b]))


def duplicated_mean_direction(ds):
    """Coincident centroid pair at the data mean plus the antisymmetric
    direction along the top covariance eigenvector; the quadratic form then
    collapses to (1/2)(1 - 2 beta lambda) with no cross term."""
    mu = np.average(ds.points, axis=0, weights=ds.weights)
    Y = np.vstack([mu, mu])
    C = posterior_covariance(ds, Y, 1.0, 0)
    lams, vecs = np.linalg.eigh(C)
    u = vecs[:, -1]
    psi = np.vstack([u, -u]) / np.sqrt(2.0)
    return Y, psi, float(lams[-1])


def bisect_hessian_root(ds, Y, psi, lo, hi, iters=60):
    assert hessian_quadratic_form(ds, Y, lo, psi) > 0
    assert hessian_quadratic_form(ds, Y, hi, psi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if hessian_quadratic_form(ds, Y, mid, psi) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_associations_uniform_at_zero_beta():
    ds = blobs([(0, 0)], 1.0, 10, seed=0)
    Y = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 5.0]])
    P = gibbs_associations(ds, Y, 0.0)
    assert np.allclose(P, 1.0 / 3.0, atol=1e-15)


def test_associations_single_centroid():
    ds = blobs([(2, 2)], 0.5, 8, seed=1)
    P = gibbs_associations(ds, np.array([[100.0, -50.0]]), 3.0)
    assert P.shape == (8, 1)
    assert np.allclose(P, 1.0, atol=1e-15)


def test_associations_harden_to_nearest():
    ds = Dataset(np.array([[0.0, 0.0], [10.0, 0.0]]))
    P = gibbs_associations(ds, ds.points.copy(), 1e6)
    assert np.allclose(P, np.eye(2), atol=1e-12)


def test_associations_reject_negative_beta():
    ds = blobs([(0, 0)], 1.0, 5, seed=0)
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        gibbs_associations(ds, np.zeros((1, 2)), -0.5)


@settings(deadline=None, max_examples=30)
@given(
    seed=st.integers(0, 2**31 - 1),
    m=st.integers(1, 4),
    beta=st.floats(0.0, 50.0),
)
def test_associations_are_row_stochastic(seed, m, beta):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.normal(size=(12, 3)))
    Y = rng.normal(size=(m, 3)) * 2.0
    P = gibbs_associations(ds, Y, beta)
    assert P.min() >= 0.0
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_free_energy_single_centroid_is_mean_square_distance():
    # with one centroid the log-sum-exp collapses and F is the mean squared
    # distance, independent of beta
    X = np.random.default_rng(3).normal(size=(20, 2))
    ds = Dataset(X)
    y = np.array([[0.3, -0.7]])
    want = float(ds.weights @ ((X - y[0]) ** 2).sum(axis=1))
    for beta in (0.5, 7.0):
        assert free_energy(ds, y, beta) == pytest.approx(want, rel=1e-12)


def test_free_energy_approaches_distortion_from_below():
    ds = Dataset(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [4.0, 4.0], [5.0, 4.0]]))
    Y = np.array([[0.5, 0.3], [4.5, 4.0]])
    gaps = []
    for beta in (1.0, 10.0, 100.0):
        P = gibbs_associations(ds, Y, beta)
        d2 = ((ds.points[:, None, :] - Y[None, :, :]) ** 2).sum(axis=2)
        D = float(ds.weights @ (P * d2).sum(axis=1))
        F = free_energy(ds, Y, beta)
        assert F <= D + 1e-12
        gaps.append((D - F, D))
    # at beta=100 the associations are one-hot to machine precision, so the
    # gap closes completely up to rounding
    assert gaps[0][0] > gaps[1][0] > gaps[2][0] >= -1e-12
    assert abs(gaps[2][0]) < 0.05 * gaps[2][1]


def test_free_energy_requires_positive_beta():
    ds = blobs([(0, 0)], 1.0, 5, seed=0)
    with pytest.raises(ValueError, match="beta must be positive"):
        free_energy(ds, np.zeros((1, 2)), 0.0)


def test_fixed_point_collapses_to_mean_at_low_beta():
    ds = blobs([(0, 0), (6, 0), (0, 6)], 0.5, 40, seed=2)
    mu = ds.points.mean(axis=0)
    init = np.array([[0.0, 0.0], [6.0, 0.0], [0.0, 6.0]])
    Y = da_fixed_point(ds, init, 1e-6, tol=1e-10, max_iter=2000)
    assert np.abs(Y - mu).max() < 1e-4


def test_fixed_point_single_centroid_lands_on_weighted_mean():
    X = np.random.default_rng(5).normal(size=(15, 3))
    ds = Dataset(X)
    mu = np.average(X, axis=0, weights=ds.weights)
    Y = da_fixed_point(ds, np.array([[9.0, 9.0, 9.0]]), 1.0, tol=1e-12, max_iter=5)
    assert np.abs(Y[0] - mu).max() < 1e-12


def test_fixed_point_two_disks_matches_kmeans_centroids():
    ds = gen_two_disks(1.0, 4.0, 400, seed=2)
    km = kmeans(ds, 2, restarts=4, seed=0)
    init = km.centroids + np.array([[0.05, -0.03], [-0.02, 0.04]])
    Y = da_fixed_point(ds, init, 0.5, tol=1e-10, max_iter=3000)
    got = Y[np.argsort(Y[:, 1])]
    want = km.centroids[np.argsort(km.centroids[:, 1])]
    assert np.abs(got - want).max() < 0.02


def test_fixed_point_iteration_cap_raises():
    ds = blobs([(0, 0), (7, 0)], 0.5, 30, seed=4)
    init = np.array([[1.0, 1.0], [2.0, -1.0]])
    with pytest.raises(RuntimeError, match="fixed point did not converge"):
        da_fixed_point(ds, init, 1.0, tol=1e-15, max_iter=1)


def test_fixed_point_accept_returns_instead_of_raising():
    ds = blobs([(0, 0), (7, 0)], 0.5, 30, seed=4)
    init = np.array([[1.0, 1.0], [2.0, -1.0]])
    Y = da_fixed_point(ds, init, 1.0, tol=1e-15, max_iter=1, accept=1e9)
    assert Y.shape == (2, 2)
    assert np.isfinite(Y).all()
    # a tight accept bound is no rescue: the residual must actually reach it
    with pytest.raises(RuntimeError, match="fixed point did not converge"):
        da_fixed_point(ds, init, 1.0, tol=1e-15, max_iter=1, accept=1e-15)


def test_fixed_point_updates_never_increase_free_energy():
    ds = blobs([(0, 0), (5, 5)], 1.0, 35, seed=6)
    Y = np.array([[1.0, 4.0], [4.0, 1.0]])
    beta = 2.0
    prev = free_energy(ds, Y, beta)
    for _ in range(6):
        P = gibbs_associations(ds, Y, beta)
        mass = (ds.weights[:, None] * P).sum(axis=0)
        Y = ((ds.weights[:, None] * P).T @ ds.points) / mass[:, None]
        cur = free_energy(ds, Y, beta)
        assert cur <= prev + 1e-10 * max(1.0, abs(prev))
        prev = cur


def test_posterior_covariance_single_centroid_is_weighted_covariance():
    X = np.random.default_rng(7).normal(size=(25, 2))
    ds = Dataset(X)
    mu = np.average(X, axis=0, weights=ds.weights)
    C = posterior_covariance(ds, mu[None, :], 3.0, 0)
    D = X - mu
    want = (ds.weights[:, None] * D).T @ D
    assert np.abs(C - want).max() < 1e-12
    assert np.abs(C - C.T).max() == 0.0


def test_posterior_covariance_zero_mass_error():
    ds = blobs([(0, 0)], 0.5, 10, seed=0)
    Y = np.array([[0.0, 0.0], [1e8, 1e8]])
    with pytest.raises(ValueError, match="cluster 1 has zero posterior mass"):
        posterior_covariance(ds, Y, 1.0, 1)


def test_hessian_zero_direction_is_zero():
    ds = blobs([(0, 0), (4, 0)], 0.5, 20, seed=1)
    Y = np.array([[0.0, 0.0], [4.0, 0.0]])
    assert hessian_quadratic_form(ds, Y, 1.0, np.zeros_like(Y)) == 0.0


def test_hessian_positive_at_tiny_beta():
    ds = line_mixture(0)
    Y, psi, _ = duplicated_mean_direction(ds)
    assert hessian_quadratic_form(ds, Y, 1e-8, psi) > 0


def test_hessian_matches_closed_form_for_coincident_pair():
    # antisymmetric direction on a coincident pair: the cross term vanishes
    # and the form is exactly (1/2)(1 - 2 beta lambda)
    ds = line_mixture(1)
    Y, psi, lam = duplicated_mean_direction(ds)
    for beta in (0.01, 0.1, 0.25):
        want = 0.5 * (1.0 - 2.0 * beta * lam)
        assert hessian_quadratic_form(ds, Y, beta, psi) == pytest.approx(
            want, rel=1e-10
        )


def test_hessian_root_by_bisection_is_half_inverse_eigenvalue():
    ds = line_mixture(2)
    Y, psi, lam = duplicated_mean_direction(ds)
    pred = 1.0 / (2.0 * lam)
    root = bisect_hessian_root(ds, Y, psi, 0.5 * pred, 1.5 * pred)
    assert root == pytest.approx(pred, rel=1e-9)


def test_two_disk_transition_constant():
    # unit disks at center gap 4R: per-point second moment along the gap axis
    # is R^2/4 + gap^2/4 = 4.25, so the first split sits near 1/8.5
    ds = gen_two_disks(1.0, 4.0, 3000, seed=5)
    Y, psi, lam = duplicated_mean_direction(ds)
    assert lam == pytest.approx(4.25, rel=0.05)
    pred = 1.0 / (2.0 * lam)
    root = bisect_hessian_root(ds, Y, psi, 0.5 * pred, 1.5 * pred)
    assert root == pytest.approx(1.0 / 8.5, rel=0.05)


def test_anneal_two_disks_splits_once_at_predicted_beta():
    ds = gen_two_disks(1.0, 4.0, 250, seed=0)
    _, _, lam = duplicated_mean_direction(ds)
    pred = 1.0 / (2.0 * lam)
    trace = anneal(ds, np.geomspace(pred / 4.0, 1.5, 160))
    ks = [k for _, k, _ in trace.schedule]
    assert ks[0] == 1
    assert ks[-1] == 2
    assert ks == sorted(ks)
    assert len(trace.split_events) == 1
    beta_split, parent = trace.split_events[0]
    assert parent == 0
    assert beta_split == pytest.approx(pred, rel=0.10)


def test_anneal_below_critical_never_splits():
    ds = gen_two_disks(1.0, 4.0, 250, seed=0)
    _, _, lam = duplicated_mean_direction(ds)
    pred = 1.0 / (2.0 * lam)
    trace = anneal(ds, np.geomspace(pred / 10.0, 0.7 * pred, 25))
    assert trace.split_events == []
    assert all(k == 1 for _, k, _ in trace.schedule)


def test_anneal_schedule_validation():
    ds = blobs([(0, 0), (5, 0)], 0.5, 10, seed=0)
    for bad in ([], [1.0, 1.0], [0.5, 0.4]):
        with pytest.raises(ValueError, match="strictly increasing and nonempty"):
            anneal(ds, bad)
    with pytest.raises(ValueError, match="beta must be positive"):
        anneal(ds, [0.0, 1.0])


@pytest.mark.parametrize("scale", [np.nan, np.inf, 0.0, -1e-6, 1e308])
def test_anneal_rejects_an_unusable_split_offset_before_any_fixed_point(monkeypatch, scale):
    # NaN and inf offsets never converged, 0 never split, a negative one
    # only swaps each candidate pair, and 1e308 x diameter overflows
    def no_work(*args, **kwargs):
        raise AssertionError("fixed point started despite a bad offset")

    monkeypatch.setattr(annealing, "da_fixed_point", no_work)
    ds = gen_two_disks(1.0, 4.0, 20, seed=0)
    with pytest.raises(ValueError, match="split_perturbation_scale"):
        anneal(ds, [0.1, 0.2], split_perturbation_scale=scale)


def test_anneal_degenerate_dataset():
    ds = Dataset(np.full((5, 2), 3.0))
    with pytest.raises(ValueError, match="degenerate dataset: zero diameter"):
        anneal(ds, [0.1, 0.2])


def test_trace_csv_layout():
    ds = gen_two_disks(1.0, 4.0, 100, seed=1)
    trace = anneal(ds, np.geomspace(0.02, 0.3, 12))
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "beta,k_distinct,free_energy"
    assert len(lines) == 1 + len(trace.schedule)
    beta0, k0, fe0 = lines[1].split(",")
    assert float(beta0) == trace.schedule[0][0]
    assert int(k0) == trace.schedule[0][1]
    assert float(fe0) == trace.schedule[0][2]


# The formulas of the annealing toolkit as first written, each with its own
# distance matrix and logits and one posterior evaluation per group; the
# package must reproduce them bit for bit.
def oracle_gibbs_associations(data, centroids, beta):
    X = data.points
    Y = np.atleast_2d(centroids)
    d2 = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    a = -beta * d2
    a -= a.max(axis=1, keepdims=True)
    e = np.exp(a)
    return e / e.sum(axis=1, keepdims=True)


def oracle_free_energy(data, centroids, beta):
    X = data.points
    Y = np.atleast_2d(centroids)
    d2 = (X * X).sum(axis=1)[:, None] + (Y * Y).sum(axis=1)[None, :] - 2.0 * (X @ Y.T)
    np.maximum(d2, 0.0, out=d2)
    a = -beta * d2
    m = a.max(axis=1)
    lse = m + np.log(np.exp(a - m[:, None]).sum(axis=1))
    return float(-(data.weights @ lse) / beta)


def oracle_posterior_covariance(data, centroids, beta, j):
    P = oracle_gibbs_associations(data, centroids, beta)
    q = data.weights * P[:, j]
    total = q.sum()
    if total <= 0:
        raise ValueError(f"cluster {j} has zero posterior mass")
    q = q / total
    D = data.points - np.atleast_2d(centroids)[j]
    C = (q[:, None] * D).T @ D
    return (C + C.T) / 2.0


def oracle_hessian_quadratic_form(data, centroids, beta, psi):
    X, w = data.points, data.weights
    Y = np.atleast_2d(centroids)
    psi = np.atleast_2d(psi)
    P = oracle_gibbs_associations(data, Y, beta)
    total = 0.0
    for j in range(Y.shape[0]):
        mass = float(w @ P[:, j])
        if mass <= 0:
            continue
        C = oracle_posterior_covariance(data, Y, beta, j)
        pj = psi[j]
        total += mass * float(pj @ pj - 2.0 * beta * (pj @ C @ pj))
    proj = np.zeros(X.shape[0])
    for j in range(Y.shape[0]):
        proj += P[:, j] * ((X - Y[j]) @ psi[j])
    total += 2.0 * beta * beta * float(w @ (proj * proj))
    return total


def oracle_da_fixed_point(data, centroids_init, beta, tol, max_iter, accept):
    X, w = data.points, data.weights
    Y = np.atleast_2d(np.asarray(centroids_init, dtype=float)).copy()
    for _ in range(max_iter):
        P = oracle_gibbs_associations(data, Y, beta)
        mass = (w[:, None] * P).sum(axis=0)
        Ynew = Y.copy()
        nz = mass > 0
        Ynew[nz] = ((w[:, None] * P).T @ X)[nz] / mass[nz, None]
        move = float(np.abs(Ynew - Y).max())
        Y = Ynew
        if move < tol:
            return Y
    assert move <= accept
    return Y


def oracle_anneal_schedule(data, betas, scale=1e-6):
    X, w = data.points, data.weights
    diam = float(np.linalg.norm(X.max(axis=0) - X.min(axis=0)))
    offset, thresh = scale * diam, annealing._DISTINCT_FRAC * diam
    centers = np.average(X, axis=0, weights=w)[None, :]
    schedule, splits = [], []
    for beta in betas:
        cand = np.empty((2 * centers.shape[0], X.shape[1]))
        for g in range(centers.shape[0]):
            _, u = largest_eigenvalue(oracle_posterior_covariance(data, centers, beta, g))
            lead = np.flatnonzero(np.abs(u) > 1e-12)
            if lead.size and u[lead[0]] < 0:
                u = -u
            cand[2 * g] = centers[g] + offset * u
            cand[2 * g + 1] = centers[g] - offset * u
        Y = oracle_da_fixed_point(
            data, cand, beta, 1e-9 * diam, annealing._FP_CAP, 0.5 * thresh
        )
        new_centers, idx = annealing._group_centroids(Y, thresh)
        splits += [(beta, g) for g in range(centers.shape[0]) if idx[2 * g] != idx[2 * g + 1]]
        centers = new_centers
        schedule.append((beta, centers.shape[0], oracle_free_energy(data, centers, beta)))
    return schedule, splits


def oracle_datasets():
    """One dataset with centroid sets of one to five rows, coincident rows
    and one far from every point included, and sets of 8, 9, 17 and 129
    rows, which numpy sums with eight running sums and, above 128, by
    halves. Then the da_trace benchmark's shape: four Gaussians, N = 1000,
    whose first split is near beta = 0.02, with 1, 2, 4 and 8 centroids; from
    two on the last is far from every point, so at beta = 1 its mass is zero."""
    rng = np.random.default_rng(11)
    wide = np.random.default_rng(13)
    ds = blobs([(0, 0), (4, 1), (1, 5)], 0.7, 20, seed=3)
    for m in range(1, 6):
        Y = ds.points[rng.choice(ds.n, size=m, replace=False)] + rng.normal(size=(m, 2))
        yield ds, Y
        if m >= 2:
            Yc = Y.copy()
            Yc[1] = Yc[0]
            yield ds, Yc
    yield ds, np.array([[0.5, 0.5], [0.5, 0.5], [40.0, -30.0]])
    for m in (8, 9, 17, 129):
        Y = ds.points[wide.choice(ds.n, size=m)] + wide.normal(size=(m, 2))
        Y[1] = Y[0]
        Y[-1] = (40.0, -30.0)
        yield ds, Y
    cov = 0.25 * np.eye(2)
    big = gen_gaussian_mixture([(-5, -5), (-5, 5), (5, -5), (5, 5)], [cov] * 4, [250] * 4, 0)
    for k in (1, 2, 4, 8):
        Y = big.points[rng.choice(big.n, size=k, replace=False)] + rng.normal(size=(k, 2))
        if k >= 2:
            Y[-1] = (400.0, -300.0)
        if k >= 4:
            Y[1] = Y[0]
        yield big, Y


ORACLE_BETAS = (0.0, 1e-3, 1.0, 1e3)


def test_associations_and_free_energy_are_bitwise_the_oracle():
    for ds, Y in oracle_datasets():
        for beta in ORACLE_BETAS:
            P = gibbs_associations(ds, Y, beta)
            assert P.flags.c_contiguous
            assert np.array_equal(P, oracle_gibbs_associations(ds, Y, beta))
            if beta > 0:
                assert free_energy(ds, Y, beta) == oracle_free_energy(ds, Y, beta)


def test_posterior_covariance_and_hessian_are_bitwise_the_oracle():
    rng = np.random.default_rng(12)
    for ds, Y in oracle_datasets():
        psi = rng.normal(size=Y.shape)
        for beta in ORACLE_BETAS:
            for j in range(Y.shape[0]):
                try:
                    want = oracle_posterior_covariance(ds, Y, beta, j)
                except ValueError:
                    with pytest.raises(ValueError, match="zero posterior mass"):
                        posterior_covariance(ds, Y, beta, j)
                    continue
                assert np.array_equal(posterior_covariance(ds, Y, beta, j), want)
            got = hessian_quadratic_form(ds, Y, beta, psi)
            assert got == oracle_hessian_quadratic_form(ds, Y, beta, psi)


def test_fixed_point_is_bitwise_the_oracle():
    for ds, Y in oracle_datasets():
        for beta in (1e-3, 1.0):
            got = da_fixed_point(ds, Y, beta, tol=1e-9, max_iter=50, accept=np.inf)
            assert np.array_equal(got, oracle_da_fixed_point(ds, Y, beta, 1e-9, 50, np.inf))


def test_anneal_is_bitwise_the_oracle():
    ds = gen_two_disks(1.0, 4.0, 60, seed=5)
    betas = list(np.geomspace(0.05, 2.0, 25))
    trace = anneal(ds, betas)
    schedule, splits = oracle_anneal_schedule(ds, betas)
    assert trace.schedule == schedule
    assert trace.split_events == splits
    assert max(kd for _, kd, _ in schedule) > 2


def row_order_input(k, n, seed):
    """k x n values spread over many binades, a column of -0.0 and, from two
    rows on, an overflowing pair and an infinity."""
    rng = np.random.default_rng(seed)
    T = rng.standard_normal((k, n)) * np.exp(rng.uniform(-30.0, 30.0, size=(k, n)))
    T[:, 0] = -0.0
    if k >= 2:
        T[:2, 1] = 1e308
        T[-1, 2] = -np.inf
    return T


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_row_order_sum_is_bitwise_numpys_row_sum():
    for k in range(1, 301):
        T = row_order_input(k, 19, seed=k)
        want = np.ascontiguousarray(T.T).sum(axis=1)
        assert annealing._row_order_sum(T).tobytes() == want.tobytes(), k


@pytest.mark.parametrize("k", [7, 8, 9, 15, 16, 17, 127, 128, 129, 200, 256, 257])
def test_row_order_sum_of_softmax_terms_at_the_block_boundaries(k):
    # exp'd shifted logits over 1000 points, as gibbs_associations sums them
    E = np.exp(-np.abs(np.random.default_rng(k).normal(size=(k, 1000))))
    want = np.ascontiguousarray(E.T).sum(axis=1)
    assert annealing._row_order_sum(E).tobytes() == want.tobytes()


def test_fixed_point_rejects_zero_iterations_before_any_work(monkeypatch):
    ds = blobs([(0, 0), (7, 0)], 0.5, 30, seed=4)
    calls = []
    monkeypatch.setattr(annealing, "gibbs_associations", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        da_fixed_point(ds, np.zeros((2, 2)), 1.0, max_iter=0)
    assert calls == []


@pytest.mark.parametrize("beta", [np.nan, np.inf])
def test_nonfinite_beta_is_rejected(beta):
    ds = blobs([(0, 0), (7, 0)], 0.5, 30, seed=4)
    Y = np.array([[1.0, 1.0], [2.0, -1.0]])
    with pytest.raises(ValueError, match="beta must be nonnegative and finite"):
        gibbs_associations(ds, Y, beta)
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        free_energy(ds, Y, beta)
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        da_fixed_point(ds, Y, beta)


@pytest.mark.parametrize("bad", [[0.1, np.nan, 0.5], [np.nan], [0.1, np.inf]])
def test_anneal_rejects_nonfinite_schedule_before_any_work(monkeypatch, bad):
    ds = blobs([(0, 0), (5, 0)], 0.5, 10, seed=0)
    calls = []
    monkeypatch.setattr(annealing, "gibbs_associations", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="beta schedule must be finite"):
        anneal(ds, bad)
    assert calls == []


@pytest.mark.parametrize("Y", [np.zeros((2, 3)), np.zeros((0, 2)), np.zeros((2, 2, 1))])
def test_centroids_of_the_wrong_shape_are_rejected(Y):
    ds = blobs([(0, 0), (7, 0)], 0.5, 30, seed=4)
    msg = r"centroids must be a nonempty \(k, 2\) array"
    with pytest.raises(ValueError, match=msg):
        gibbs_associations(ds, Y, 1.0)
    with pytest.raises(ValueError, match=msg):
        free_energy(ds, Y, 1.0)
    with pytest.raises(ValueError, match=msg):
        da_fixed_point(ds, Y, 1.0)
    with pytest.raises(ValueError, match=msg):
        posterior_covariance(ds, Y, 1.0, 0)


def test_hessian_rejects_psi_of_another_shape():
    ds = blobs([(0, 0), (4, 0)], 0.5, 20, seed=1)
    Y = np.array([[0.0, 0.0], [4.0, 0.0]])
    with pytest.raises(ValueError, match="psi must have the shape of the centroids"):
        hessian_quadratic_form(ds, Y, 1.0, np.zeros((3, 2)))
