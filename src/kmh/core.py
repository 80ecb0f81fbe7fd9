"""Shared domain types: dataset container, partitions, and the Adjusted Rand Index."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

SCATTER_LABEL = 0


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr:
        out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class DataMatrix:
    """n observations by p features, dense and finite."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {values.shape}")
        n, p = values.shape
        if n < 2 or p < 1:
            raise ValueError(f"need at least 2 observations and 1 feature, got {n}x{p}")
        if not np.all(np.isfinite(values)):
            raise ValueError("data contains NaN or Inf entries")
        object.__setattr__(self, "values", _readonly(values))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @cached_property
    def row_ids(self) -> np.ndarray:
        """Distinct-row id of each observation, 0..n_distinct-1: rows equal
        entry by entry (-0.0 equal to 0.0) share an id. Computed once per
        dataset; K-means seeding and its K bound read it on every run."""
        ids = np.unique(self.values, axis=0, return_inverse=True)[1].ravel()
        ids.setflags(write=False)
        return ids

    @cached_property
    def n_distinct(self) -> int:
        return int(self.row_ids.max()) + 1


@dataclass(frozen=True)
class Partition:
    """Cluster label per observation: ids 1..K, with 0 reserved for scatter."""

    labels: np.ndarray
    K: int = field(init=False)  # number of clusters, read from the labels

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.ndim != 1:
            raise ValueError("labels must be a 1-d array")
        if labels.size < 1:
            raise ValueError("empty label array")
        if labels.min() < 0:
            raise ValueError("labels must be >= 0 (0 is the scatter id)")
        positive = np.unique(labels[labels > 0])
        k = int(positive.size)
        if k > 0 and not np.array_equal(positive, np.arange(1, k + 1)):
            raise ValueError(f"cluster ids must be exactly 1..{k}, got {positive.tolist()}")
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "labels", _readonly(labels))

    @property
    def n(self) -> int:
        return self.labels.size

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        """Build a partition from arbitrary nonnegative labels, renumbering ids to 1..K.

        Positive ids are mapped to 1..K in ascending order of the original id;
        0 passes through as scatter.
        """
        labels = np.asarray(labels, dtype=np.int64)
        ids, inverse = np.unique(labels, return_inverse=True)
        if ids.size and ids[0] < 0:
            raise ValueError("labels must be >= 0 (0 is the scatter id)")
        # ids ascend, so rank 0 is the scatter id when it is present
        return cls(inverse.reshape(labels.shape) + int(ids.size and ids[0] != 0))


@dataclass(frozen=True)
class ContingencyTable:
    """Co-occurrence counts between the groups of two partitions."""

    counts: np.ndarray
    row_labels: np.ndarray
    col_labels: np.ndarray

    @property
    def row_marginals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    @property
    def col_marginals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def contingency(p1: Partition, p2: Partition) -> ContingencyTable:
    """Cross-tabulate two partitions of the same observations.

    Rows index the groups of ``p1``, columns those of ``p2``, both in
    ascending label order. The reserved label 0 is counted as an ordinary
    group of its own.
    """
    if p1.n != p2.n:
        raise ValueError(f"partition lengths differ: {p1.n} vs {p2.n}")
    rows, r_idx = np.unique(p1.labels, return_inverse=True)
    cols, c_idx = np.unique(p2.labels, return_inverse=True)
    cells = np.bincount(r_idx * cols.size + c_idx, minlength=rows.size * cols.size)
    counts = cells.reshape(rows.size, cols.size)
    return ContingencyTable(_readonly(counts), _readonly(rows), _readonly(cols))


def adjusted_rand_index(p1: Partition, p2: Partition) -> float:
    """Chance-corrected pairwise agreement between two partitions.

    Returns 1.0 iff the partitions are identical up to a relabeling of
    cluster ids; around zero for independent partitions. The reserved
    label 0 counts as one ordinary group, so every observation contributes.
    """
    table = contingency(p1, p2)
    n = p1.n
    if n < 2:
        raise ValueError("need at least 2 observations")
    # pairs counted in floating point via m(m-1)/2: exact for counts < 2^26
    def pairs(m):
        m = np.asarray(m, dtype=float)
        return m * (m - 1.0) / 2.0

    sum_cells = pairs(table.counts).sum()
    sum_rows = pairs(table.row_marginals).sum()
    sum_cols = pairs(table.col_marginals).sum()
    total = n * (n - 1.0) / 2.0
    expected = sum_rows * sum_cols / total
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        # happens only when both partitions are all-singletons or single-group
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))
