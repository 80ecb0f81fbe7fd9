"""Single-linkage agglomeration over K-means entities.

Entities are merged greedily by smallest pairwise distance with the
min-rule distance update; the recorded merge heights feed the change-point
heuristic that proposes how many general-shaped clusters to keep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SCATTER_LABEL, Partition


@dataclass(frozen=True)
class MergeTrace:
    """Ordered merges (members_a, members_b, height) over original entity ids."""

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
    if np.isnan(dist).any():
        raise ValueError("distance matrix contains NaN")
    if not np.array_equal(dist, dist.T):
        raise ValueError("distance matrix must be symmetric")
    if (dist < 0).any():
        raise ValueError("distance matrix must be nonnegative")
    return dist


def _pair_key(members_a: frozenset, members_b: frozenset) -> tuple:
    return tuple(sorted((min(members_a), min(members_b))))


def single_linkage(dist, stop_at: int = 1):
    """Greedy single-linkage agglomeration of a distance matrix.

    Repeatedly merges the closest pair of current clusters (ties resolved
    toward the pair with lexicographically smallest original entity ids)
    and updates distances by the elementwise minimum, until `stop_at`
    clusters remain. Returns (MergeTrace, labels) where labels assigns
    each original entity a group id 1..stop_at, numbered by each group's
    smallest member.
    """
    dist = _check_distance_matrix(dist)
    K0 = dist.shape[0]
    if not (1 <= stop_at <= K0):
        raise ValueError(f"stop_at={stop_at} out of range for {K0} entities")

    clusters = [frozenset([i]) for i in range(K0)]
    work = dist.copy()
    merges = []
    while len(clusters) > stop_at:
        rows, cols = np.triu_indices(len(clusters), 1)
        vals = work[rows, cols]
        ties = np.flatnonzero(vals == vals.min())
        best = min(ties, key=lambda t: _pair_key(clusters[rows[t]], clusters[cols[t]]))
        a, b = int(rows[best]), int(cols[best])
        height = work[a, b]
        merges.append((clusters[a], clusters[b], float(height)))

        merged_row = np.minimum(work[a], work[b])
        work[a] = merged_row
        work[:, a] = merged_row
        work[a, a] = 0.0
        keep = [i for i in range(len(clusters)) if i != b]
        work = work[np.ix_(keep, keep)]
        clusters[a] = clusters[a] | clusters[b]
        del clusters[b]

    labels = np.empty(K0, dtype=np.int64)
    for gid, members in enumerate(sorted(clusters, key=min), start=1):
        for m in members:
            labels[m] = gid
    return MergeTrace(tuple(merges), K0), labels


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
    if entity_partition.K != K0:
        raise ValueError("entity partition does not match the trace")

    # each merge joins two whole groups; a group is named by its smallest
    # entity, so ranking the names numbers the groups
    root = np.arange(K0)
    for members_a, members_b, _ in trace.merges[: K0 - kstar]:
        merged = list(members_a | members_b)
        root[merged] = min(merged)
    group = np.unique(root, return_inverse=True)[1]
    table = np.concatenate([[SCATTER_LABEL], group + 1])
    return Partition(table[entity_partition.labels])
