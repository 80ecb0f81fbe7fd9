"""Single-linkage agglomeration over K-means entities.

Entities are merged greedily by smallest pairwise distance with the
min-rule distance update. Each group is named by its smallest entity, and a
merge is recorded as the two names with its height; the heights feed the
change-point heuristic that proposes how many general-shaped clusters to
keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SCATTER_LABEL, Partition


@dataclass(frozen=True)
class MergeTrace:
    """Ordered merges (a, b, height): the groups named by their smallest
    entities a < b join at `height`, and the union keeps the name a."""

    merges: tuple
    entity_count: int

    @property
    def heights(self) -> np.ndarray:
        return np.array([h for _, _, h in self.merges])


@dataclass(frozen=True)
class ChangePointReport:
    """Height gaps between consecutive merges and the cluster counts they suggest."""

    cps: np.ndarray
    candidate_kstars: list


def _check_distance_matrix(dist: np.ndarray) -> np.ndarray:
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.isfinite(dist).all():
        raise ValueError("distance matrix contains NaN or inf")
    if not np.array_equal(dist, dist.T):
        raise ValueError("distance matrix must be symmetric")
    if (dist < 0).any():
        raise ValueError("distance matrix must be nonnegative")
    return dist


def _group_ids(merges, K0: int) -> np.ndarray:
    """Group id 0, 1, ... of each entity after `merges`, numbered by each
    group's smallest entity."""
    root = np.arange(K0)
    for a, b, _ in merges:
        root[root == b] = a
    return np.unique(root, return_inverse=True)[1]


def single_linkage(dist, stop_at: int = 1):
    """Greedy single-linkage agglomeration of a distance matrix.

    Repeatedly merges the closest pair of current groups (ties resolved
    toward the lexicographically smallest pair of group names) and updates
    distances by the elementwise minimum, until `stop_at` groups remain.
    Returns (MergeTrace, labels) where labels assigns each original entity
    a group id 1..stop_at, numbered by each group's smallest member.
    """
    dist = _check_distance_matrix(dist)
    K0 = dist.shape[0]
    if not (1 <= stop_at <= K0):
        raise ValueError(f"stop_at={stop_at} out of range for {K0} entities")

    # group a owns row and column a; the diagonal and merged-away rows and
    # columns hold inf, so the first minimum in row-major order is the
    # lexicographically smallest tied pair a < b, and a min-rule merge
    # leaves the other rows' minima unchanged
    work = dist.copy()
    np.fill_diagonal(work, np.inf)
    row_min = work.min(axis=1)
    merges = []
    for _ in range(K0 - stop_at):
        a = int(np.argmin(row_min))
        b = int(np.argmin(work[a]))
        merges.append((a, b, float(work[a, b])))
        row = np.minimum(work[a], work[b])
        row[[a, b]] = np.inf
        work[a] = work[:, a] = row
        work[b] = work[:, b] = np.inf
        row_min[a], row_min[b] = row.min(), np.inf
    return MergeTrace(tuple(merges), K0), _group_ids(merges, K0) + 1


def change_points(trace: MergeTrace, L: int) -> ChangePointReport:
    """Rank stopping points by the gap between consecutive merge heights.

    Gap k (between merges k and k+1) proposes keeping the K0 - k clusters
    present just before the later, bigger jump. The top L proposals are
    returned in descending gap order, ties toward the larger cluster
    count. Gaps run over k = 0..K0-3, so each proposal lies in [2, K0-1].
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    K0 = trace.entity_count
    if len(trace.merges) != K0 - 1:
        raise ValueError("change points need a complete merge trace")
    if K0 < 3:
        return ChangePointReport(np.empty(0), [])

    heights = trace.heights
    cps = np.diff(heights)
    ranked = sorted(range(cps.size), key=lambda k: (-cps[k], -(K0 - (k + 1))))
    kstars = [K0 - (k + 1) for k in ranked[:L]]
    return ChangePointReport(cps, kstars)


def cut_to_partition(trace: MergeTrace, kstar: int, entity_partition: Partition) -> Partition:
    """Observation partition obtained by undoing the trace at kstar groups.

    Applies the first K0 - kstar merges to map entities onto groups; each
    observation inherits its entity's group. Scatter (label 0) passes
    through. Groups are numbered 1..kstar by smallest member entity.
    """
    K0 = trace.entity_count
    if not (1 <= kstar <= K0):
        raise ValueError(f"kstar={kstar} out of range for {K0} entities")
    if K0 - kstar > len(trace.merges):
        raise ValueError(f"kstar={kstar} needs {K0 - kstar} merges, trace has {len(trace.merges)}")
    if entity_partition.K != K0:
        raise ValueError("entity partition does not match the trace")

    group = _group_ids(trace.merges[: K0 - kstar], K0)
    table = np.concatenate([[SCATTER_LABEL], group + 1])
    return Partition(table[entity_partition.labels])
