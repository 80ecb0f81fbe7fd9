"""Co-association consensus across candidate partitions.

The similarity matrix counts how often pairs of observations land in the
same cluster across partitions; thresholding its dendrogram estimates the
number of general-shaped clusters, and the final partition is the one most
similar (by mean Adjusted Rand Index) to all the others.

Rows with one label signature, the tuple of a row's labels across the
partitions, share a cluster in every partition, so each count vote makes
one linkage call on a table of co-membership counts between the distinct
signatures it drew, with ties between equal heights broken in `np.unique`'s
lexicographic signature order, and the reported similarity is one such
table over the report's rows. Votes and the heatmap order read the table
itself, never a matrix with a row per observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

from ._rng import Seed, generator
from .core import SCATTER_LABEL, adjusted_rand_index

DEFAULT_THRESHOLD = 0.5
# linkage-choice cutoffs: co-association ensembles whose off-diagonal mass is
# modest or noisy get chained with single linkage (see estimate_kstar)
DEFAULT_MEAN_CUT = 0.5
DEFAULT_CV_CUT = 0.8


@dataclass(frozen=True)
class SimilarityMatrix:
    """Fraction of partitions placing each observation pair together, held
    as a table over label signatures: psi[i, j] = share[sig[i], sig[j]]."""

    share: np.ndarray  # (s, s) co-association between distinct signatures
    sig: np.ndarray  # signature id of each row
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


def _co_counts(partitions, labels: np.ndarray) -> np.ndarray:
    """How many of `partitions` put each pair of rows of `labels` (a row per
    observation, a column per partition) in one cluster.

    Evidence accumulation (Fred & Jain 2005): one-hot Y with a column per
    label value 0..K of each partition, so co-membership counts are Y Y^T.
    Scatter label 0 gets its own column, like any other label. The float32
    product is exact: every entry is a sum of at most N ones.
    """
    widths = [part.K + 1 for part in partitions]
    offsets = np.cumsum([0] + widths[:-1])
    y = np.zeros((labels.shape[0], sum(widths)), dtype=np.float32)
    np.put_along_axis(y, labels + offsets, 1.0, axis=1)
    return y @ y.T


def label_signatures(partitions, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct label signatures of `indices` (a row each, a column per
    partition) and each index's signature id."""
    labels = np.stack([part.labels[indices] for part in partitions], axis=1)
    signatures, sig = np.unique(labels, axis=0, return_inverse=True)
    return signatures, sig.reshape(-1)


def co_association_table(partitions, indices: np.ndarray) -> SimilarityMatrix:
    """Share of `partitions` placing each pair of `indices` in one cluster,
    tabulated between their distinct label signatures."""
    signatures, sig = label_signatures(partitions, indices)
    share = _co_counts(partitions, signatures).astype(np.float64) / float(len(partitions))
    return SimilarityMatrix(share, sig, indices)


def _cv_exceeds(s1: int, s2: int, pairs: int, cut: float) -> bool:
    """Whether `pairs` values summing to s1, with squares summing to s2, have
    a coefficient of variation above `cut`, decided exactly. The coefficient
    is inf when the mean is 0."""
    if s1 == 0:
        return math.inf > cut
    if not 0.0 <= cut < math.inf:
        return cut < 0.0  # the coefficient is finite and >= 0; NaN is never exceeded
    # cv**2 = var / mean**2 = (pairs * s2 - s1**2) / s1**2
    return Fraction(pairs * s2 - s1 * s1, s1 * s1) > Fraction(cut) ** 2


def estimate_kstar(
    partitions,
    B: int,
    subsample: int,
    seed: Seed = 0,
    mean_cut: float = DEFAULT_MEAN_CUT,
    cv_cut: float = DEFAULT_CV_CUT,
) -> KStarEstimate:
    """Count groups B times on random observation subsets.

    Each replicate samples `subsample` core observations (scatter in no
    partition) uniformly without replacement and cuts the 1-psi dendrogram
    of their co-association at 1-threshold: single linkage when psi off the
    diagonal is generally small (mean below mean_cut) or uncertain
    (coefficient of variation above cv_cut), complete otherwise. Reports
    every estimate, the frequency of each value, and their lower median.

    Each replicate tabulates the co-membership counts `cnt` between the
    distinct label signatures of its rows (at most `subsample` of them), so
    its work and memory are bounded by the draw, not by the core set. With
    w its rows per signature, the off-diagonal sums of psi and psi**2 are
    exactly (w.cnt.w - m N) / 2N and (w.cnt**2.w - m N**2) / 2N**2. The
    vote is one linkage call on the heights 1 - cnt/N between those
    signatures: rows of one signature sit at height 0 from each other and
    at equal heights from every other row, so either linkage joins them
    first and then treats them as one point. The count is the signatures
    less the merges at or below 1-threshold. Ties between heights are
    broken in `np.unique`'s lexicographic signature order, not in row
    order, so a vote does not depend on how the rows are numbered. A draw
    holding a single signature votes 1. When `subsample` is the whole core
    set every sorted draw is that set, so one replicate is computed and
    repeated B times.
    """
    if not partitions:
        raise ValueError("need at least one partition")
    if B < 1:
        raise ValueError("B must be >= 1")
    if subsample < 2:
        raise ValueError(f"subsample={subsample} must be >= 2")
    core = _core_indices(partitions)
    if subsample > core.size:
        raise ValueError(f"subsample={subsample} exceeds {core.size} core observations")

    N, m = len(partitions), subsample
    pairs = m * (m - 1) // 2
    signatures, sig = label_signatures(partitions, core)

    def vote(rows: np.ndarray) -> int:
        present, w = np.unique(sig[rows], return_counts=True)
        if present.size == 1:
            return 1
        cnt = _co_counts(partitions, signatures[present]).astype(np.int64)
        s1 = (int(w @ cnt @ w) - m * N) // 2
        s2 = (int(w @ (cnt * cnt) @ w) - m * N * N) // 2
        # weak or uncertain co-association: chain cautiously with single linkage
        weak = Fraction(s1, N * pairs) < mean_cut or _cv_exceeds(s1, s2, pairs, cv_cut)
        heights = squareform(1.0 - cnt / float(N), checks=False)
        tree = linkage(heights, method="single" if weak else "complete")
        # both linkages are monotone, so cutting at 1 - threshold undoes every
        # merge above it; pairs sitting exactly at the threshold stay linked
        return present.size - int(np.count_nonzero(tree[:, 2] <= 1.0 - DEFAULT_THRESHOLD))

    if subsample == core.size:
        estimates = [vote(np.arange(m))] * B
    else:
        rng = generator(seed)
        estimates = [vote(np.sort(rng.choice(core.size, size=m, replace=False))) for _ in range(B)]

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

