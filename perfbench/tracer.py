"""Span tracer that times the package's layers from outside.

Each public function defined in a layer module (``dataset``, ``clustering``,
``linalg``, ``persistence``, ``annealing``, ``cli``) is wrapped while the
tracer is installed. The package imports functions by name
(``from .linalg import largest_eigenvalue``), so a wrapper only sees a call
if it replaces the name in every module that holds it; ``installed`` does
that by identity over all of the package's modules and puts the originals
back on exit.

A span is ``[name, start, end, parent, book, attrs]``: ``parent`` is the
index of the enclosing span (-1 for none) and ``book`` is the time the
wrapper spent after ``end`` measuring the call (hashing the matrix handed to
``largest_eigenvalue``, computing its residual). That bookkeeping lies inside
the parent's interval, so it is taken out of the parent's time and reported
on its own; self times plus bookkeeping then add up to the root span.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PACKAGE = "clusterpersist"
LAYERS = ("dataset", "clustering", "linalg", "persistence", "annealing", "cli")

# largest_eigenvalue hands matrices of at most this order to cyclic Jacobi
# and larger ones to power iteration (linalg._JACOBI_MAX_ORDER)
SMALL_ORDER = 64


def _eigen_probe(args, kwargs, result):
    M = np.ascontiguousarray(args[0] if args else kwargs["M"], dtype=float)
    lam, v = result
    res = float(np.linalg.norm(M @ v - lam * v))
    # the solver's own scale: the infinity norm, an upper bound on ||M||_2
    scale = max(1.0, float(np.abs(M).sum(axis=1).max()))
    return {
        "order": M.shape[0],
        "key": hashlib.blake2b(M.tobytes(), digest_size=16).hexdigest(),
        "rel_residual": res / scale,
        # the documented contract of largest_eigenvalue: residual at most
        # 1e-8 * max(1, ||M||), or 1e-5 * |lambda| for a stalled top cluster
        "certified": res <= 1e-8 * scale or res <= 1e-5 * abs(lam),
    }


def _kernel_probe(args, kwargs, result):
    return {"bytes": result.shape[0] * result.shape[1] * result.itemsize}


_PROBES = {
    "linalg.largest_eigenvalue": _eigen_probe,
    "linalg.gaussian_kernel": _kernel_probe,
}


def _public_functions(module):
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__
    }


class Tracer:
    """Keeps spans in memory; ``spans`` is cleared by its owner between solves."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if probe is not None:
                rec[5] = probe(args, kwargs, result)
                rec[4] = perf_counter() - rec[2]
            return result

        return wrapper

    @contextmanager
    def span(self, name):
        """A span around code in the benchmark itself (the root of a solve)."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self):
        """Replace every layer function, under every name that refers to it."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in reversed(patched):
                setattr(module, attr, value)


def _times(spans):
    """Per span: time net of descendants' bookkeeping, and self time."""
    n = len(spans)
    sub_book = [0.0] * n
    for i in range(n - 1, -1, -1):
        parent = spans[i][3]
        if parent >= 0:
            sub_book[parent] += sub_book[i] + spans[i][4]
    net = [s[2] - s[1] - sub_book[i] for i, s in enumerate(spans)]
    self_time = list(net)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            self_time[s[3]] -= net[i]
    return net, self_time


def summarize(spans):
    """Per-layer figures of one traced solve.

    Returns (metrics, counts): metrics are keyed by the names in
    BENCHMARK.json's per_layer list, counts maps each span name (and the
    ``.small``/``.large`` split of largest_eigenvalue) to its call count.
    """
    net, self_time = _times(spans)
    counts: dict = {}
    busy: dict = {}
    self_by_name: dict = {}
    layer_self = {layer: 0.0 for layer in ("workload",) + LAYERS}
    eig_keys = set()
    max_res = 0.0
    uncertified = 0
    fp_iterations = 0
    kernel_bytes = 0
    for i, (name, _, _, parent, _, attrs) in enumerate(spans):
        keys = [name]
        if name == "linalg.largest_eigenvalue":
            keys.append(name + (".small" if attrs["order"] <= SMALL_ORDER else ".large"))
            eig_keys.add(attrs["key"])
            max_res = max(max_res, attrs["rel_residual"])
            uncertified += not attrs["certified"]
        elif name == "linalg.gaussian_kernel":
            kernel_bytes += attrs["bytes"]
        elif name == "annealing.gibbs_associations" and parent >= 0:
            fp_iterations += spans[parent][0] == "annealing.da_fixed_point"
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
            busy[key] = busy.get(key, 0.0) + net[i]
        self_by_name[name] = self_by_name.get(name, 0.0) + self_time[i]
        layer_self[name.split(".", 1)[0]] += self_time[i]

    eig_calls = counts.get("linalg.largest_eigenvalue", 0)
    metrics = {
        "workload.self_s": layer_self["workload"],
        "trace.bookkeeping_s": sum(s[4] for s in spans),
        "clustering.kmeans.calls": counts.get("clustering.kmeans", 0),
        "clustering.kmeans.busy_s": busy.get("clustering.kmeans", 0.0),
        "clustering.spectral_cluster.calls": counts.get("clustering.spectral_cluster", 0),
        "clustering.spectral_cluster.self_s": self_by_name.get("clustering.spectral_cluster", 0.0),
        "linalg.largest_eigenvalue.calls": eig_calls,
        "linalg.largest_eigenvalue.busy_s": busy.get("linalg.largest_eigenvalue", 0.0),
        "linalg.largest_eigenvalue.small.calls": counts.get("linalg.largest_eigenvalue.small", 0),
        "linalg.largest_eigenvalue.small.busy_s": busy.get("linalg.largest_eigenvalue.small", 0.0),
        "linalg.largest_eigenvalue.large.calls": counts.get("linalg.largest_eigenvalue.large", 0),
        "linalg.largest_eigenvalue.large.busy_s": busy.get("linalg.largest_eigenvalue.large", 0.0),
        "linalg.largest_eigenvalue.distinct_ratio": len(eig_keys) / eig_calls if eig_calls else 0.0,
        "linalg.largest_eigenvalue.max_rel_residual": max_res,
        "linalg.largest_eigenvalue.uncertified": uncertified,
        "linalg.gaussian_kernel.busy_s": busy.get("linalg.gaussian_kernel", 0.0),
        "linalg.gaussian_kernel.bytes": kernel_bytes,
        "linalg.kernel_scatter_matrix.busy_s": busy.get("linalg.kernel_scatter_matrix", 0.0),
        "linalg.scatter_matrix.busy_s": busy.get("linalg.scatter_matrix", 0.0),
        "persistence.critical_beta.busy_s": busy.get("persistence.critical_beta", 0.0),
        "persistence.critical_beta_kernel.busy_s": busy.get("persistence.critical_beta_kernel", 0.0),
        "persistence.persistence_profile.self_s": self_by_name.get("persistence.persistence_profile", 0.0),
        "annealing.da_fixed_point.calls": counts.get("annealing.da_fixed_point", 0),
        "annealing.da_fixed_point.busy_s": busy.get("annealing.da_fixed_point", 0.0),
        "annealing.da_fixed_point.iterations": fp_iterations,
        "annealing.posterior_covariance.busy_s": busy.get("annealing.posterior_covariance", 0.0),
        "annealing.free_energy.busy_s": busy.get("annealing.free_energy", 0.0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics, counts


def busy_by_layer(spans, layer):
    """Time inside a layer's outermost spans, net of tracer bookkeeping."""
    net, _ = _times(spans)
    total = 0.0
    for i, s in enumerate(spans):
        parent = s[3]
        if s[0].split(".", 1)[0] == layer and (parent < 0 or spans[parent][0].split(".", 1)[0] != layer):
            total += net[i]
    return total
