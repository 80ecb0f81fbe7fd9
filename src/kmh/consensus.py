"""Co-association consensus across candidate partitions.

The similarity matrix counts how often pairs of observations land in the
same cluster across partitions; thresholding its dendrogram estimates the
number of general-shaped clusters, and the final partition is the one most
similar (by mean Adjusted Rand Index) to all the others.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from ._rng import Seed, generator
from .core import SCATTER_LABEL, adjusted_rand_index

DEFAULT_THRESHOLD = 0.5
# linkage-choice cutoffs: co-association ensembles whose off-diagonal mass is
# modest or noisy get chained with single linkage (see count_groups)
DEFAULT_MEAN_CUT = 0.5
DEFAULT_CV_CUT = 0.8


@dataclass(frozen=True)
class SimilarityMatrix:
    """Fraction of partitions placing each observation pair together."""

    psi: np.ndarray
    indices: np.ndarray  # observation ids the rows/columns refer to


@dataclass(frozen=True)
class KStarEstimate:
    per_replicate: list
    median_kstar: int
    frequencies: dict


def _core_indices(partitions) -> np.ndarray:
    n = partitions[0].n
    mask = np.ones(n, dtype=bool)
    for part in partitions:
        if part.n != n:
            raise ValueError("partitions cover different observation sets")
        mask &= part.labels != SCATTER_LABEL
    return np.flatnonzero(mask)


def co_association(partitions, indices: np.ndarray) -> np.ndarray:
    """Share of `partitions` placing each pair of `indices` in one cluster.

    Evidence accumulation (Fred & Jain 2005): one-hot Y with a column per
    label value 0..K of each partition, so co-membership counts are Y Y^T.
    Scatter label 0 gets its own column, like any other label. The float32
    product is exact: every entry is a sum of at most N ones.
    """
    labels = np.stack([part.labels[indices] for part in partitions], axis=1)
    widths = [part.K + 1 for part in partitions]
    offsets = np.cumsum([0] + widths[:-1])
    y = np.zeros((indices.size, sum(widths)), dtype=np.float32)
    np.put_along_axis(y, labels + offsets, 1.0, axis=1)
    return (y @ y.T).astype(np.float64) / float(len(partitions))


def count_groups(
    psi: np.ndarray,
    threshold: float = DEFAULT_THRESHOLD,
    mean_cut: float = DEFAULT_MEAN_CUT,
    cv_cut: float = DEFAULT_CV_CUT,
) -> int:
    """Cluster count left after cutting the 1-psi dendrogram at 1-threshold.

    Linkage is single when the off-diagonal similarities are generally
    small (mean below mean_cut) or uncertain (coefficient of variation
    above cv_cut), complete otherwise.
    """
    if psi.shape[0] < 2:
        raise ValueError("need at least 2 observations")
    off = squareform(psi, checks=False)
    mean = float(off.mean())
    cv = np.inf if mean == 0 else float(off.std() / mean)
    # weak or uncertain co-association: chain cautiously with single linkage
    method = "single" if (mean < mean_cut or cv > cv_cut) else "complete"
    tree = linkage(1.0 - off, method=method)
    # pairs sitting exactly at the threshold stay linked
    flat = fcluster(tree, t=1.0 - threshold, criterion="distance")
    return int(flat.max())


def estimate_kstar(
    partitions,
    B: int,
    subsample: int,
    seed: Seed = 0,
    mean_cut: float = DEFAULT_MEAN_CUT,
    cv_cut: float = DEFAULT_CV_CUT,
) -> KStarEstimate:
    """Replicate `count_groups` B times on random observation subsets.

    Each replicate samples `subsample` core observations (scatter in no
    partition) uniformly without replacement, builds the co-association
    matrix on the subset, and counts groups. Reports every estimate, the
    frequency of each value, and their lower median. When `subsample` is the
    whole core set every sorted draw is that set, so one replicate is
    computed and repeated B times.
    """
    if not partitions:
        raise ValueError("need at least one partition")
    if B < 1:
        raise ValueError("B must be >= 1")
    core = _core_indices(partitions)
    if subsample > core.size:
        raise ValueError(f"subsample={subsample} exceeds {core.size} core observations")

    if subsample == core.size:
        psi = co_association(partitions, core)
        estimates = [count_groups(psi, mean_cut=mean_cut, cv_cut=cv_cut)] * B
    else:
        rng = generator(seed)
        estimates = []
        for _ in range(B):
            chosen = np.sort(rng.choice(core, size=subsample, replace=False))
            psi = co_association(partitions, chosen)
            estimates.append(count_groups(psi, mean_cut=mean_cut, cv_cut=cv_cut))

    ordered = sorted(estimates)
    median = ordered[(B - 1) // 2]
    values, counts = np.unique(estimates, return_counts=True)
    freqs = {int(v): float(c) / B for v, c in zip(values, counts)}
    return KStarEstimate(estimates, int(median), freqs)


def mean_ari_scores(partitions):
    """Pairwise ARI matrix (unit diagonal, scatter as a group of its own)
    and its row means."""
    N = len(partitions)
    ari = np.eye(N)
    for i in range(N):
        for j in range(i + 1, N):
            ari[i, j] = ari[j, i] = adjusted_rand_index(partitions[i], partitions[j])
    return ari, ari.mean(axis=1)

