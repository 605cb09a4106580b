"""Estimating the number of clusters from the persistence of solutions.

A clustering into k groups is "persistent" over the range of resolutions
for which it stays optimal. Each solution's critical resolution is
beta_k = 1 / (2 max_j lambda_max(C_j)) with C_j the scatter matrix of
cluster j; the persistence score v(k) = log beta_k - log beta_{k-1}
peaks at the true cluster count. The kernel variant applies the same
rule to doubly centered kernel blocks, so ring- and spiral-shaped
groups count too.
"""
from .annealing import (
    AnnealTrace,
    anneal,
    da_fixed_point,
    free_energy,
    gibbs_associations,
    hessian_quadratic_form,
    posterior_covariance,
)
from .clustering import ClusteringSolution, kmeans, spectral_basis, spectral_cluster
from .dataset import (
    Dataset,
    gen_gaussian_mixture,
    gen_rings,
    gen_spirals,
    gen_supercluster_grid,
    gen_two_disks,
    load_csv,
    normalize_zscore,
)
from .linalg import (
    gaussian_kernel,
    jacobi_eigh,
    kernel_scatter_matrix,
    largest_eigenvalue,
    scatter_matrix,
)
from .persistence import (
    CriticalBeta,
    PersistenceProfile,
    critical_beta,
    critical_beta_kernel,
    persistence_profile,
)

__version__ = "0.1.0"

__all__ = [
    "AnnealTrace",
    "ClusteringSolution",
    "CriticalBeta",
    "Dataset",
    "PersistenceProfile",
    "anneal",
    "critical_beta",
    "critical_beta_kernel",
    "da_fixed_point",
    "free_energy",
    "gaussian_kernel",
    "gen_gaussian_mixture",
    "gen_rings",
    "gen_spirals",
    "gen_supercluster_grid",
    "gen_two_disks",
    "gibbs_associations",
    "hessian_quadratic_form",
    "jacobi_eigh",
    "kernel_scatter_matrix",
    "kmeans",
    "largest_eigenvalue",
    "load_csv",
    "normalize_zscore",
    "persistence_profile",
    "posterior_covariance",
    "scatter_matrix",
    "spectral_basis",
    "spectral_cluster",
    "__version__",
]
