"""Cluster general-shaped groups by over-partitioning with K-means and
merging the resulting spherical entities with a probabilistic distance."""

__version__ = "0.1.0"

from .core import DataMatrix, Partition, adjusted_rand_index, contingency
from .datagen import gen_banana_spheres, gen_bullseye, gen_gaussian_blobs
from .gaussdist import (
    SphericalCluster,
    entity_distance_matrix,
    fit_entity,
    noncentral_chisq_cdf,
)
from .pipeline import KmhConfig, KmhError, KmhReport, run_kmh, standardize

__all__ = [
    "DataMatrix",
    "Partition",
    "adjusted_rand_index",
    "contingency",
    "gen_banana_spheres",
    "gen_bullseye",
    "gen_gaussian_blobs",
    "SphericalCluster",
    "entity_distance_matrix",
    "fit_entity",
    "noncentral_chisq_cdf",
    "KmhConfig",
    "KmhError",
    "KmhReport",
    "run_kmh",
    "standardize",
]
