"""The benchmark's workloads: inputs built from a seed, one solve, its check.

Every workload reaches the package through its public API, looked up on the
package at call time so that the tracer's wrappers are seen. A solve returns
an ``Outcome``: the text whose digest must repeat exactly (profile CSV or
da-trace stdout) and the list of checks it failed against the paper's
answer.
"""
from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, NamedTuple

import numpy as np

import clusterpersist as cp
from clusterpersist import cli


class Outcome(NamedTuple):
    text: str
    problems: List[str]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]
    solve: Callable[[object], Outcome]
    # span names a traced solve (or its setup) must contain; a zero count
    # means a wrapper was bypassed or the workload no longer reaches the layer
    stresses: tuple
    # raw seconds of one untraced solve on a 2-vCPU Intel Xeon VM (2.1 GHz
    # nominal, OpenBLAS on one thread); a run makes round(--seconds /
    # nominal_s) solves, so the same seed always gives the same solves
    nominal_s: float
    # whether solve times are scaled by the reference kernel (reference.py);
    # rings' solve times do not follow it, see perfbench/README.md
    scaled: bool = True


def _expect(label, got, want):
    return [] if got == want else [f"{label}: k_t={got}, expected {want}"]


# grid100: the paper's large-scale stand-in, a 10x10 grid of tight Gaussians
# (N=10000). The scan is k=99..101 (k-means at k=98..101) rather than the
# acceptance test's k=90..110: a full scan takes about 25 s, longer than one
# run may last, and the narrow scan runs the same k-means at the same large k.
def _grid_setup(seed):
    means = [(float(i), float(j)) for i in range(10) for j in range(10)]
    cov = (0.08 * 0.08) * np.eye(2)
    return cp.gen_gaussian_mixture(means, [cov] * 100, [100] * 100, seed=seed), seed


def _grid_solve(inputs):
    data, seed = inputs
    prof = cp.persistence_profile(data, k_max=101, k_min=99, restarts=4, seed=seed)
    return Outcome(prof.to_csv(), _expect("grid100", prof.k_t, 100))


# rings: three concentric rings through the kernel route. The ring data is
# the acceptance-gate instance (generator seed 0); the seed drives the
# clustering RNG. Solve time across generator seeds ranges from about 5 s
# to 18 s with power-iteration convergence, a spread no run can average.
# k_t misses are expected on many seeds (the margin is tie-level) and are
# counted as failed solves.
def _rings_setup(seed):
    return cp.normalize_zscore(cp.gen_rings([1.0, 2.0, 3.0], 450, 0.01, seed=0)), seed


def _rings_solve(inputs):
    data, seed = inputs
    prof = cp.persistence_profile(data, k_max=6, mode="kernel", sigma=0.01, restarts=8, seed=seed)
    return Outcome(prof.to_csv(), _expect("rings", prof.k_t, 3))


# tables: the bundled measurement tables; the seed drives the clustering RNG.
_TABLES = (("iris", 4, 2), ("wine", 13, 3), ("wisconsin", 30, 2))


def _tables_setup(seed):
    data_dir = Path(cp.__file__).parent / "data"
    return [
        (name, cp.normalize_zscore(cp.load_csv(data_dir / f"{name}.csv", label_column=col)), want)
        for name, col, want in _TABLES
    ], seed


def _tables_solve(inputs):
    tables, seed = inputs
    text, problems = [], []
    for name, data, want in tables:
        prof = cp.persistence_profile(data, k_max=10, restarts=8, seed=seed)
        text.append(f"# {name}\n{prof.to_csv()}")
        problems += _expect(name, prof.k_t, want)
    return Outcome("".join(text), problems)


# da_trace: the CLI's annealing check on four Gaussians, run in-process; the
# seed drives the data generator. The split must land within 5% of the
# predicted critical beta, as acceptance criterion 7 requires.
_FLOAT = r"([-+0-9.eE]+|inf|nan)"


def _da_setup(seed):
    return ["da-trace", "--gen", "gaussians4", "--seed", str(seed)]


def _da_solve(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    text = buf.getvalue()
    if rc != 0:
        return Outcome(text, [f"da_trace: exit code {rc}"])
    pred = re.search(r"predicted critical beta = " + _FLOAT, text)
    seen = re.search(r"first split observed at beta = " + _FLOAT, text)
    if not (pred and seen):
        return Outcome(text, ["da_trace: output lacks predicted or observed beta"])
    predicted, observed = float(pred.group(1)), float(seen.group(1))
    rel = abs(observed - predicted) / predicted
    return Outcome(text, [] if rel < 0.05 else [f"da_trace: split off by {rel:.2%}"])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "grid100", _grid_setup, _grid_solve,
            ("persistence.persistence_profile", "clustering.kmeans", "persistence.critical_beta",
             "linalg.scatter_matrix", "linalg.largest_eigenvalue.small"),
            4.2,
        ),
        Workload(
            "rings", _rings_setup, _rings_solve,
            ("persistence.persistence_profile", "linalg.gaussian_kernel",
             "clustering.spectral_cluster", "clustering.kmeans",
             "persistence.critical_beta_kernel", "linalg.kernel_scatter_matrix",
             "linalg.largest_eigenvalue.large"),
            6.4, scaled=False,
        ),
        Workload(
            "tables", _tables_setup, _tables_solve,
            ("persistence.persistence_profile", "dataset.load_csv", "dataset.normalize_zscore",
             "clustering.kmeans", "linalg.scatter_matrix", "linalg.largest_eigenvalue.small",
             "linalg.jacobi_eigh"),
            4.7,
        ),
        Workload(
            "da_trace", _da_setup, _da_solve,
            ("cli.main", "dataset.gen_gaussian_mixture", "annealing.anneal",
             "annealing.da_fixed_point", "annealing.gibbs_associations",
             "annealing.posterior_covariance", "annealing.free_energy",
             "linalg.largest_eigenvalue"),
            1.35,
        ),
    )
}
