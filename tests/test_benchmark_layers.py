"""The benchmark's workloads name the layer functions they must reach.

perfbench/workloads.py lists, per workload, the spans "<layer>.<function>"
(largest_eigenvalue also as .small/.large) that a traced solve must contain,
and the tracer wraps only public functions defined in a layer module. A
renamed, moved or privatized function would leave its span empty; this test
catches that without running the benchmark. The file is read, not imported.

The tracer also counts fixed-point iterations as the gibbs_associations
spans directly under da_fixed_point, so that call structure is pinned here
too, with the per-dataset squared norms the hot path reads. It sees the
scatter builders only through the names the persistence module holds, so
both critical-beta functions must look them up there at call time.
"""

import ast
import copy
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import clusterpersist.annealing as annealing
import clusterpersist.persistence as persistence
from clusterpersist import Dataset, gaussian_kernel, kmeans

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def stressed_spans():
    """(workload, span) for every name in each Workload(...)'s stresses."""
    tree = ast.parse(WORKLOADS.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Workload":
            args = {kw.arg: kw.value for kw in node.keywords}
            name = ast.literal_eval(args.get("name", node.args[0]))
            stresses = ast.literal_eval(args.get("stresses", node.args[3]))
            for span in stresses:
                yield name, span


def test_every_stressed_span_is_a_public_layer_function():
    spans = list(stressed_spans())
    assert {w for w, _ in spans} == {"grid100", "rings", "tables", "da_trace"}
    for workload, span in spans:
        base = span.removesuffix(".small").removesuffix(".large")
        layer, _, name = base.partition(".")
        module = importlib.import_module(f"clusterpersist.{layer}")
        fn = vars(module).get(name)
        assert not name.startswith("_"), (workload, span)
        assert inspect.isfunction(fn), (workload, span)
        assert fn.__module__ == module.__name__, (workload, span)


def counting(monkeypatch, module, name):
    """Wrap module.name, as the tracer does; returns the list of calls."""
    calls = []
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def counting_gibbs(monkeypatch):
    return counting(monkeypatch, annealing, "gibbs_associations")


def small_case():
    rng = np.random.default_rng(2)
    X = np.vstack([rng.normal(size=(40, 2)), rng.normal(size=(40, 2)) + 5.0])
    return Dataset(X), np.array([[1.0, 1.0], [3.0, 4.0], [2.0, 2.5]])


def test_fixed_point_calls_the_public_posterior_once_per_iteration(monkeypatch):
    ds, Y = small_case()
    calls = counting_gibbs(monkeypatch)
    # the smallest positive tol is met only by a movement of exactly 0, which
    # these centroids do not make, so exactly max_iter map evaluations run,
    # also when the cap falls inside a two-evaluation SQUAREM cycle
    for cap in (1, 2, 3, 7):
        calls.clear()
        annealing.da_fixed_point(ds, Y, 0.5, tol=5e-324, max_iter=cap, accept=np.inf)
        assert len(calls) == cap
    # a converging run: its iteration count is the smallest cap it meets
    iterations = next(n for n in range(1, 500) if _converges(ds, Y, n))
    calls.clear()
    annealing.da_fixed_point(ds, Y, 0.5, tol=1e-9, max_iter=500)
    assert iterations > 2
    assert len(calls) == iterations


def test_critical_beta_calls_the_public_scatter_builders(monkeypatch):
    # a builder bound when the module is imported would bypass the wrapper,
    # and the linalg.scatter_matrix span of grid100 and tables would be empty
    ds, _ = small_case()
    sol = kmeans(ds, 2, restarts=2)
    linear = counting(monkeypatch, persistence, "scatter_matrix")
    kernel = counting(monkeypatch, persistence, "kernel_scatter_matrix")
    persistence.critical_beta(sol, ds)
    assert len(linear) == 2 and not kernel
    K = gaussian_kernel(ds, 2.0)
    persistence.critical_beta_kernel(sol, K)
    assert len(linear) == 2 and len(kernel) == 2
    assert [args[1].tolist() for args in kernel] == [sol.members(j).tolist() for j in (0, 1)]


@pytest.mark.parametrize("k_min", [1, 3])
def test_sweep_calls_the_public_layer_functions_once_per_k(monkeypatch, k_min):
    # the spans the rings, grid100 and tables workloads stress: a sweep that
    # bypassed these names would leave them empty in a traced run
    ds, _ = small_case()
    ks = list(range(max(1, k_min - 1), 6))
    names = ("kmeans", "critical_beta", "spectral_cluster", "critical_beta_kernel",
             "gaussian_kernel", "spectral_basis")
    calls = {name: counting(monkeypatch, persistence, name) for name in names}

    def ks_of(name, at):
        return [args[at].k if at == 0 else args[at] for args in calls[name]]

    persistence.persistence_profile(ds, k_max=5, restarts=2, k_min=k_min)
    assert ks_of("kmeans", 1) == ks_of("critical_beta", 0) == ks
    assert not any(calls[name] for name in names[2:])
    for found in calls.values():
        found.clear()
    persistence.persistence_profile(ds, k_max=5, mode="kernel", sigma=2.0, restarts=2, k_min=k_min)
    assert ks_of("spectral_cluster", 1) == ks
    # the k = 1 block is K itself, solved without the per-k builder
    assert ks_of("critical_beta_kernel", 0) == [k for k in ks if k >= 2]
    assert len(calls["gaussian_kernel"]) == len(calls["spectral_basis"]) == 1
    assert not calls["kmeans"] and not calls["critical_beta"]


def _converges(ds, Y, cap):
    try:
        annealing.da_fixed_point(ds, Y, 0.5, tol=1e-9, max_iter=cap)
    except RuntimeError:
        return False
    return True


def test_squared_norms_are_a_read_only_derived_attribute():
    # weights, the uniform point masses p_i = 1/N, are derived the same way
    X = np.random.default_rng(3).normal(size=(30, 9))[::2, ::1]
    ds = Dataset(X)
    assert ds.sq_norms.tobytes() == (X * X).sum(axis=1).tobytes()
    assert ds.weights.tobytes() == np.full(15, 1.0 / 15).tobytes()
    fields = {f.name: f for f in dataclasses.fields(Dataset)}
    for name in ("sq_norms", "weights"):
        derived = getattr(ds, name)
        assert not derived.flags.writeable
        with pytest.raises(ValueError):
            derived[0] = 1.0
        field = fields[name]
        assert (field.init, field.repr, field.compare) == (False, False, False)
        assert name not in repr(ds)
        with pytest.raises(TypeError):
            Dataset(X, **{name: np.zeros(15)})
        other = copy.copy(ds)
        setattr(other, name, np.zeros(15))
        assert ds == other


def test_hot_paths_read_the_stored_norms():
    # one more unit on every stored squared norm adds 1 to every distance:
    # the free energy and the k-means distortion rise by 1. The kernel reads
    # the stored norms of both points, so its distances rise by 2
    rng = np.random.default_rng(4)
    centers = np.repeat([[0.0, 0.0, 0.0], [9.0, 0.0, 0.0], [0.0, 9.0, 0.0]], 14, axis=0)
    ds = Dataset(centers + rng.normal(size=centers.shape))
    shifted = copy.copy(ds)
    shifted.sq_norms = ds.sq_norms + 1.0
    Y = ds.points[::14]
    got = annealing.free_energy(shifted, Y, 0.7) - annealing.free_energy(ds, Y, 0.7)
    assert got == pytest.approx(1.0, rel=1e-12)
    got = kmeans(shifted, 3, restarts=2).distortion - kmeans(ds, 3, restarts=2).distortion
    assert got == pytest.approx(1.0, rel=1e-12)
    off = ~np.eye(ds.n, dtype=bool)
    ratio = gaussian_kernel(shifted, 2.0)[off] / gaussian_kernel(ds, 2.0)[off]
    assert np.allclose(ratio, np.exp(-2.0 / 8.0), rtol=1e-12)
