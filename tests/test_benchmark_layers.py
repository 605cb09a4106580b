"""The benchmark's workloads name the layer functions they must reach.

perfbench/workloads.py lists, per workload, the spans "<layer>.<function>"
(largest_eigenvalue also as .small/.large) that a traced solve must contain,
and the tracer wraps only public functions defined in a layer module. A
renamed, moved or privatized function would leave its span empty; this test
catches that without running the benchmark. The file is read, not imported.

The tracer also counts fixed-point iterations as the gibbs_associations
spans directly under da_fixed_point, so that call structure is pinned here
too, with the per-dataset squared norms the hot path reads.
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


def counting_gibbs(monkeypatch):
    """Wrap annealing.gibbs_associations, as the tracer does; returns the
    list of calls."""
    calls = []
    inner = annealing.gibbs_associations

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(annealing, "gibbs_associations", wrapper)
    return calls


def small_case():
    rng = np.random.default_rng(2)
    X = np.vstack([rng.normal(size=(40, 2)), rng.normal(size=(40, 2)) + 5.0])
    return Dataset(X), np.array([[1.0, 1.0], [3.0, 4.0], [2.0, 2.5]])


def test_fixed_point_calls_the_public_posterior_once_per_iteration(monkeypatch):
    ds, Y = small_case()
    calls = counting_gibbs(monkeypatch)
    # tol 0 never converges, so exactly max_iter iterations run
    annealing.da_fixed_point(ds, Y, 0.5, tol=0.0, max_iter=7, accept=np.inf)
    assert len(calls) == 7
    # a converging run: its iteration count is the smallest cap it meets
    iterations = next(n for n in range(1, 500) if _converges(ds, Y, n))
    calls.clear()
    annealing.da_fixed_point(ds, Y, 0.5, tol=1e-9, max_iter=500)
    assert iterations > 2
    assert len(calls) == iterations


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
    # the free energy and the k-means distortion rise by 1, the kernel shrinks
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
    assert np.allclose(ratio, np.exp(-0.5 / 4.0), rtol=1e-12)
