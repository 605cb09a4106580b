"""Small utilities shared across test modules."""

import ctypes
import glob
import os
import tracemalloc
from pathlib import Path

import numpy as np

import clusterpersist
from clusterpersist import gen_gaussian_mixture, gen_rings, normalize_zscore, persistence_profile

DATA_DIR = Path(clusterpersist.__file__).parent / "data"


def child_env(**extra):
    """os.environ with the directories this suite imports clusterpersist and
    these helpers from put first on PYTHONPATH, so a child interpreter runs
    the same package whether or not the suite was started with PYTHONPATH
    set; extra variables are added on top."""
    paths = [
        str(Path(clusterpersist.__file__).resolve().parents[1]),
        str(Path(__file__).resolve().parent),
        os.environ.get("PYTHONPATH"),
    ]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **extra}


def openblas_corename():
    """The name of the kernel core that numpy's bundled OpenBLAS runs, or
    None when no bundled OpenBLAS reports one."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                return fn().decode()
    return None


def allocation_peak(fn, *args):
    """fn(*args) and the most bytes it held allocated at once above the level
    at entry, by tracemalloc. numpy reports its buffers to tracemalloc, so
    unlike the resident set size of this process the figure does not depend
    on what the allocator kept from earlier calls."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, peak - base


def gate_4a_profile():
    """The sweep of acceptance gate 4a: three concentric rings, kernel route."""
    ds = normalize_zscore(gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0))
    return persistence_profile(ds, k_max=6, mode="kernel", sigma=0.01, restarts=8, seed=0)


def blobs(centers, sd, n_per, seed=0):
    """Equal-size isotropic Gaussian blobs at the given centers."""
    centers = np.asarray(centers, dtype=float)
    covs = [sd * sd * np.eye(centers.shape[1])] * len(centers)
    return gen_gaussian_mixture(centers, covs, [n_per] * len(centers), seed)


def same_partition(a, b):
    """True when two label vectors induce the same partition of the indices."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    fwd, rev = {}, {}
    for x, y in zip(a.tolist(), b.tolist()):
        if fwd.setdefault(x, y) != y or rev.setdefault(y, x) != x:
            return False
    return True


def sym(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) * scale
    return (A + A.T) / 2.0
