import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterpersist import (
    Dataset,
    gaussian_kernel,
    gen_gaussian_mixture,
    gen_rings,
    gen_spirals,
    gen_supercluster_grid,
    gen_two_disks,
    load_csv,
    normalize_zscore,
    persistence_profile,
)
from helpers import DATA_DIR, blobs


def test_dataset_rejects_empty():
    with pytest.raises(ValueError, match="empty dataset"):
        Dataset(np.empty((0, 2)))


def test_dataset_rejects_nonfinite():
    with pytest.raises(ValueError, match="NaN or Inf"):
        Dataset(np.array([[1.0], [np.nan]]))
    with pytest.raises(ValueError, match="NaN or Inf"):
        Dataset(np.array([[np.inf, 0.0]]))


@pytest.mark.parametrize("scale", [1e160])
def test_dataset_rejects_points_whose_squared_norms_overflow(scale):
    # finite points whose squared norms are inf: every distance built on them
    # is inf or NaN, and kmeans at k = 1 would give a NaN distortion. The
    # error comes without an overflow warning.
    X = np.random.default_rng(0).normal(size=(50, 2)) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflow .* rescale the data"):
            Dataset(X)
        # each square is finite here, only their sum overflows
        with pytest.raises(ValueError, match="overflow .* rescale the data"):
            Dataset(np.array([[1.0, 2.0], [1e154, 1e154]]))
        Dataset(X / scale * 1e150)


def test_dataset_label_length_validation():
    with pytest.raises(ValueError, match="labels length"):
        Dataset(np.zeros((3, 1)), labels=np.array([0, 1]))


@pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, math.nan], [math.inf, 1.0],
                                    [1e300, 2.0**63]])
def test_dataset_refuses_labels_that_are_not_integers(labels):
    # [0.5, 1.7] was truncated to [0, 1], and the others cast to -2**63
    with pytest.raises(ValueError, match="^labels must be finite and integer-valued, within int64$"):
        Dataset(np.zeros((2, 1)), labels=labels)


def test_dataset_defaults_uniform_weights():
    ds = Dataset(np.arange(8.0).reshape(4, 2))
    np.testing.assert_allclose(ds.weights, 0.25)
    assert ds.n == 4
    assert ds.d == 2


def test_dataset_arrays_are_read_only():
    ds = Dataset(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0


def test_dataset_copies_the_callers_arrays():
    base = np.zeros((4, 3))
    X = base[:, :2]
    labels = np.arange(4)
    ds = Dataset(X, labels=labels)
    for a in (base, X, labels):
        assert a.flags.writeable
    base[0, 0] = 3.0
    labels[0] = 7
    assert ds.points[0, 0] == 0.0
    assert ds.sq_norms[0] == 0.0
    assert ds.labels[0] == 0
    assert not (ds.points.flags.writeable or ds.weights.flags.writeable or ds.labels.flags.writeable)


def test_dataset_bits_do_not_depend_on_the_input_layout():
    # a 30-value row is summed pairwise when contiguous but left to right
    # along a Fortran-ordered row, so a kept input layout changes last bits
    ds = normalize_zscore(load_csv(DATA_DIR / "wisconsin.csv", label_column=30))
    fortran = Dataset(np.asfortranarray(ds.points))
    assert fortran.points.flags.c_contiguous
    assert fortran.sq_norms.tobytes() == ds.sq_norms.tobytes()
    assert gaussian_kernel(fortran, 2.0).tobytes() == gaussian_kernel(ds, 2.0).tobytes()
    want = persistence_profile(ds, k_max=4, restarts=2, seed=0).to_csv()
    assert persistence_profile(fortran, k_max=4, restarts=2, seed=0).to_csv() == want


def test_zscore_two_point_column():
    out = normalize_zscore(Dataset(np.array([[1.0], [3.0]])))
    np.testing.assert_allclose(out.points[:, 0], [-1.0, 1.0], atol=1e-15)


def test_zscore_constant_column_becomes_zeros():
    out = normalize_zscore(Dataset(np.array([[5.0, 1.0], [5.0, 3.0], [5.0, 8.0]])))
    assert np.all(out.points[:, 0] == 0.0)
    assert np.abs(out.points[:, 1]).max() > 0


def test_zscore_moments():
    rng = np.random.default_rng(3)
    out = normalize_zscore(Dataset(rng.normal(2.0, 7.0, size=(100, 3))))
    np.testing.assert_allclose(out.points.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(out.points.std(axis=0), 1.0, atol=1e-9)


def test_zscore_preserves_weights_and_labels():
    ds = Dataset(np.arange(6.0).reshape(3, 2), labels=np.array([1, 0, 1]))
    out = normalize_zscore(ds)
    assert out.weights.tobytes() == ds.weights.tobytes()
    np.testing.assert_array_equal(out.labels, ds.labels)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_zscore_idempotent(seed, n, d):
    rng = np.random.default_rng(seed)
    ds = Dataset(rng.normal(size=(n, d)) * rng.uniform(0.5, 20.0))
    once = normalize_zscore(ds)
    twice = normalize_zscore(once)
    np.testing.assert_allclose(twice.points, once.points, atol=1e-9)


def test_load_csv_plain(tmp_path):
    p = tmp_path / "pts.csv"
    p.write_text("1,2\n3,4\n5,6\n")
    ds = load_csv(p)
    assert ds.n == 3
    assert ds.d == 2
    assert ds.labels is None
    np.testing.assert_array_equal(ds.points, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_header_and_label_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("x,y,cls\n1.5,2.5,0\n3.5,4.5,1\n")
    ds = load_csv(p, has_header=True, label_column=2)
    assert ds.d == 2
    np.testing.assert_array_equal(ds.labels, [0, 1])
    np.testing.assert_allclose(ds.points, [[1.5, 2.5], [3.5, 4.5]])


def test_load_csv_parse_error_names_position(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,abc\n")
    with pytest.raises(ValueError, match=r"row 1, column 2"):
        load_csv(p)


def test_load_csv_ragged_row(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="ragged row 2"):
        load_csv(p)


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "e.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty dataset"):
        load_csv(p)


def test_load_csv_label_column_validation(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("1,2\n3,4\n")
    with pytest.raises(ValueError, match="label column 5 out of range"):
        load_csv(p, label_column=5)
    q = tmp_path / "u.csv"
    q.write_text("1,0.5\n2,0.7\n")
    with pytest.raises(ValueError, match="labels must be finite and integer-valued"):
        load_csv(q, label_column=1)
    # a NaN or an infinite label was cast to an arbitrary integer
    for cell in ("nan", "inf"):
        q.write_text(f"1,0\n2,{cell}\n")
        with pytest.raises(ValueError, match="labels must be finite and integer-valued"):
            load_csv(q, label_column=1)


def test_packaged_fixtures_load():
    iris = load_csv(DATA_DIR / "iris.csv", label_column=4)
    assert (iris.n, iris.d) == (150, 4)
    assert len(np.unique(iris.labels)) == 3
    wine = load_csv(DATA_DIR / "wine.csv", label_column=13)
    assert (wine.n, wine.d) == (178, 13)
    wdbc = load_csv(DATA_DIR / "wisconsin.csv", label_column=30)
    assert (wdbc.n, wdbc.d) == (569, 30)
    assert len(np.unique(wdbc.labels)) == 2


def test_mixture_counts_and_component_means():
    centers = [(-5, -5), (-5, 5), (5, -5), (5, 5)]
    ds = blobs(centers, 0.5, 200)
    assert ds.n == 800
    np.testing.assert_array_equal(np.bincount(ds.labels), [200] * 4)
    for j, c in enumerate(centers):
        got = ds.points[ds.labels == j].mean(axis=0)
        np.testing.assert_allclose(got, c, atol=0.2)


def test_mixture_mean_law_of_large_numbers():
    ds = gen_gaussian_mixture([(0.0, 0.0)], [np.eye(2)], [1000], seed=7)
    assert np.abs(ds.points.mean(axis=0)).max() < 0.1


def test_mixture_validation():
    with pytest.raises(ValueError, match="component counts must be positive"):
        gen_gaussian_mixture([(0, 0)], [np.eye(2)], [0], seed=0)
    with pytest.raises(ValueError, match="equal length"):
        gen_gaussian_mixture([(0, 0)], [np.eye(2), np.eye(2)], [5], seed=0)
    with pytest.raises(ValueError, match="symmetric positive definite"):
        gen_gaussian_mixture([(0, 0)], [np.array([[1.0, 2.0], [2.0, 1.0]])], [5], seed=0)
    with pytest.raises(ValueError, match="covariance shape does not match mean dimension"):
        gen_gaussian_mixture([(0, 0)], [np.eye(3)], [5], seed=0)
    with pytest.raises(ValueError, match="symmetric positive definite"):
        gen_gaussian_mixture([(0, 0)], [np.array([[1.0, 0.5], [0.0, 1.0]])], [5], seed=0)


def test_two_disks_minimal_and_containment():
    ds = gen_two_disks(1.0, 4.0, 1, seed=0)
    assert ds.n == 2
    np.testing.assert_array_equal(ds.labels, [0, 1])
    assert np.linalg.norm(ds.points[0] - [0.0, -2.0]) <= 1.0 + 1e-12
    assert np.linalg.norm(ds.points[1] - [0.0, 2.0]) <= 1.0 + 1e-12


def test_two_disks_bulk_containment():
    ds = gen_two_disks(0.7, 3.0, 400, seed=5)
    for j, cy in ((0, -1.5), (1, 1.5)):
        pts = ds.points[ds.labels == j]
        assert np.all(np.linalg.norm(pts - [0.0, cy], axis=1) <= 0.7 + 1e-12)


def test_two_disk_scatter_top_eigenvalue():
    # uniform disk of radius R has per-coordinate variance R^2/4, so the
    # unnormalized per-disk scatter has top eigenvalue ~ n R^2 / 4
    n, R = 5000, 1.0
    ds = gen_two_disks(R, 4.0, n, seed=1)
    for j in range(2):
        pts = ds.points[ds.labels == j]
        c = pts - pts.mean(axis=0)
        lam = np.linalg.eigvalsh(c.T @ c).max()
        assert lam == pytest.approx(n * R * R / 4.0, rel=0.05)


def test_two_disks_validation():
    with pytest.raises(ValueError, match="R and center_gap must be positive"):
        gen_two_disks(0.0, 4.0, 10, seed=0)
    with pytest.raises(ValueError, match="n_per_disk"):
        gen_two_disks(1.0, 4.0, 0, seed=0)


def test_generators_are_deterministic():
    gens = [
        lambda s: gen_two_disks(1.0, 4.0, 50, seed=s),
        lambda s: gen_gaussian_mixture([(0, 0), (3, 3)], [np.eye(2)] * 2, [20, 30], seed=s),
        lambda s: gen_supercluster_grid(10.0, 2.0, 0.04 * np.eye(2), 5, seed=s),
        lambda s: gen_rings([1.0, 2.0], 30, 0.01, seed=s),
        lambda s: gen_spirals(3, 25, 0.02, seed=s),
    ]
    for g in gens:
        a, b = g(11), g(11)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.labels, b.labels)
        c = g(12)
        assert not np.array_equal(a.points, c.points)


def test_supercluster_layout():
    ds = gen_supercluster_grid(10.0, 2.0, 1e-12 * np.eye(2), 1, seed=0)
    assert ds.n == 9
    np.testing.assert_array_equal(ds.labels, np.arange(9))
    super_centers = ds.points.reshape(3, 3, 2).mean(axis=1)
    np.testing.assert_allclose(np.linalg.norm(super_centers, axis=1), 10.0, atol=1e-4)
    offsets = ds.points - np.repeat(super_centers, 3, axis=0)
    np.testing.assert_allclose(np.linalg.norm(offsets, axis=1), 2.0, atol=1e-4)


def test_supercluster_validation():
    with pytest.raises(ValueError, match="super_spacing > sub_spacing > 0"):
        gen_supercluster_grid(2.0, 5.0, np.eye(2), 3, seed=0)


def test_rings_zero_noise_lie_on_circles():
    ds = gen_rings([1.0, 2.0, 3.0], 40, 0.0, seed=2)
    norms = np.linalg.norm(ds.points, axis=1)
    np.testing.assert_allclose(norms, np.repeat([1.0, 2.0, 3.0], 40), atol=1e-12)
    np.testing.assert_array_equal(np.bincount(ds.labels), [40] * 3)


def test_rings_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        gen_rings([2.0, 1.0], 10, 0.0, seed=0)
    with pytest.raises(ValueError, match="positive"):
        gen_rings([-1.0, 2.0], 10, 0.0, seed=0)
    with pytest.raises(ValueError, match="n_per_ring"):
        gen_rings([1.0], 0, 0.0, seed=0)


def test_spirals_balanced_labels_and_extent():
    ds = gen_spirals(4, 60, 0.02, seed=3)
    assert ds.n == 240
    np.testing.assert_array_equal(np.bincount(ds.labels), [60] * 4)
    r = np.linalg.norm(ds.points, axis=1)
    assert r.min() > 0.3
    assert r.max() < 3.2


# a generator of one count argument, and a value of it that is not an integer
COUNT_ARGUMENTS = {
    "each component count": (lambda c: gen_gaussian_mixture([(0, 0)], [np.eye(2)], [c], seed=0), 2.7),
    "n_per_disk": (lambda c: gen_two_disks(1.0, 4.0, c, seed=0), 2.5),
    "n_per_sub": (lambda c: gen_supercluster_grid(10.0, 2.0, np.eye(2), c, seed=0), 3.0),
    "n_per_ring": (lambda c: gen_rings([1.0, 2.0], c, 0.0, seed=0), True),
    "n_arms": (lambda c: gen_spirals(c, 10, 0.0, seed=0), 2.0),
    "n_per_arm": (lambda c: gen_spirals(2, c, 0.0, seed=0), 10.5),
}


@pytest.mark.parametrize("name", list(COUNT_ARGUMENTS))
def test_generator_counts_must_be_integers(name):
    # [2.7] sampled 2 points and 2.5 per disk raised numpy's TypeError
    make, bad = COUNT_ARGUMENTS[name]
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
        make(bad)
    assert make(np.int64(3)).n == make(3).n


def test_spirals_validation():
    with pytest.raises(ValueError, match="n_arms"):
        gen_spirals(0, 10, 0.0, seed=0)
    with pytest.raises(ValueError, match="n_per_arm"):
        gen_spirals(2, 0, 0.0, seed=0)
