"""Pre-clustering outlier removal: observations in tiny K-means groups are
set aside before any merging happens."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import Seed
from .core import DataMatrix
from .kmeans import best_of


@dataclass(frozen=True)
class ScatterResult:
    core_indices: np.ndarray
    scatter_indices: np.ndarray

    @property
    def n_star(self) -> int:
        return int(self.core_indices.size)


def default_scatter_starts(n: int, p: int) -> int:
    """Restart budget for the scatter run, capped to keep runtime bounded."""
    return min(100, int(np.ceil(np.sqrt(n * p))))


def remove_scatter(
    data: DataMatrix,
    G: int,
    frac: float,
    seed: Seed = 0,
) -> ScatterResult:
    """Run best-of-`default_scatter_starts` G-means and drop observations
    in clusters smaller than frac*n.

    The size test is strict (< frac*n), so with frac=0.001 nothing is
    removed below n=1001 and singletons go first at n=2000. When
    frac*n <= 1 no group can be that small, so the G-means run is skipped
    and every row is core.
    """
    if not (2 <= G <= data.n_distinct):
        raise ValueError(f"G={G} out of range for {data.n_distinct} distinct rows")
    if not (0.0 <= frac < 1.0):
        raise ValueError(f"frac={frac} must be in [0, 1)")
    threshold = frac * data.n
    idx = np.arange(data.n)
    if threshold <= 1.0:
        return ScatterResult(idx, idx[:0])

    starts = default_scatter_starts(data.n, data.p)
    labels = best_of(data, G, starts=starts, seed=seed).partition.labels
    sizes = np.bincount(labels, minlength=G + 1)
    small = np.flatnonzero(sizes < threshold)
    is_scatter = np.isin(labels, small)
    return ScatterResult(idx[~is_scatter], idx[is_scatter])
