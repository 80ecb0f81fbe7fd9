"""Multi-start Lloyd K-means and the Diff(K)-ratio criterion for picking
candidate over-segmentation sizes."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._rng import Seed, generator, spawn
from .core import DataMatrix, Partition

MAX_SWEEPS = 100
# restarts behind each best-of K-means fit of the K0 search
KMEANS_STARTS = 10


@dataclass(frozen=True)
class KMeansResult:
    partition: Partition
    centers: np.ndarray
    wgss: float
    iterations: int

    @property
    def K(self) -> int:
        return self.partition.K


@dataclass(frozen=True)
class KrzanowskiTrace:
    """Per-K within-group scatter traces and the derived Diff/ratio sequences.

    ``diffs[i]`` is Diff(diff_k[i]) = (K-1)^(2/p) trace(K-1) - K^(2/p) trace(K);
    ``ratios[i]`` is C(ratio_k[i]) = |Diff(K)/Diff(K+1)|, defined only where
    Diff(K+1) is nonzero.
    """

    k_values: np.ndarray
    traces: np.ndarray
    diff_k: np.ndarray
    diffs: np.ndarray
    ratio_k: np.ndarray
    ratios: np.ndarray


def _init_macqueen(
    x: np.ndarray, row_ids: np.ndarray, K: int, rng: np.random.Generator
) -> np.ndarray:
    """K distinct observations sampled uniformly as seeds: along a random
    permutation, the first occurrence of each of the first K distinct rows."""
    order = rng.permutation(row_ids.size)
    first = np.unique(row_ids[order], return_index=True)[1]
    return x[order[np.sort(first)[:K]]]


def _sq_distances(x: np.ndarray, x_sq: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, clipped against roundoff,
    # evaluated in that order inside the one n x K buffer
    d2 = x @ centers.T
    np.multiply(2.0, d2, out=d2)
    np.subtract(x_sq[:, None], d2, out=d2)
    np.add(d2, (centers**2).sum(axis=1), out=d2)
    np.maximum(d2, 0.0, out=d2)
    return d2


def lloyd(
    data: DataMatrix,
    K: int,
    seed: Seed = 0,
    max_iter: int = MAX_SWEEPS,
) -> KMeansResult:
    """One K-means run: seed, then alternate assignment and mean updates
    until no label changes (or the sweep cap).

    Empty clusters are repaired by reseeding them at the observation
    farthest from its currently assigned center among clusters that keep a
    member without it, keeping K fixed.
    """
    x = data.values
    n, p = data.n, data.p
    if K < 1 or K > n:
        raise ValueError(f"K={K} out of range for n={n}")
    if K > 1 and data.n_distinct < K:
        raise ValueError(f"K={K} exceeds the number of distinct rows")

    if K == 1:
        center = x.mean(axis=0, keepdims=True)
        wgss = float(((x - center) ** 2).sum())
        return KMeansResult(Partition(np.ones(n, dtype=np.int64)), center, wgss, 0)

    centers = _init_macqueen(x, data.row_ids, K, generator(seed))

    x_sq = (x**2).sum(axis=1)
    labels = np.full(n, -1, dtype=np.int64)
    sweeps = 0
    while sweeps < max_iter:
        sweeps += 1
        d2 = _sq_distances(x, x_sq, centers)
        new_labels = d2.argmin(axis=1)

        counts = np.bincount(new_labels, minlength=K)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            own_d2 = d2[np.arange(n), new_labels]
            for k in empty:
                # a sole member stays put, or its cluster would empty in turn
                donor = counts[new_labels] >= 2
                far = int(np.argmax(np.where(donor, own_d2, -1.0)))
                counts[new_labels[far]] -= 1
                counts[k] += 1
                new_labels[far] = k

        changed = not np.array_equal(new_labels, labels)
        labels = new_labels
        # bin (k, d) of the flat layout sums x[i, d] over members i in row order
        sums = np.bincount(
            (labels[:, None] * p + np.arange(p)).ravel(), weights=x.ravel(), minlength=K * p
        ).reshape(K, p)
        centers = sums / counts[:, None]
        if not changed:
            break

    wgss = float(((x - centers[labels]) ** 2).sum())
    return KMeansResult(Partition(labels + 1), centers, wgss, sweeps)


def best_of(
    data: DataMatrix,
    K: int,
    starts: int = KMEANS_STARTS,
    seed: Seed = 0,
) -> KMeansResult:
    """Best of `starts` independent runs by within-group sum of squares.

    Run i draws its stream from child i of `seed`, so enlarging `starts`
    only adds runs (the minimum over a superset can't get worse).
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    best = None
    for child in spawn(seed, starts):
        result = lloyd(data, K, seed=child)
        if best is None or result.wgss < best.wgss:
            best = result
    return best


def krzanowski_from_traces(k_values, traces, p: int, M: int):
    """Diff/ratio bookkeeping over precomputed within-group scatter traces.

    Returns (KrzanowskiTrace, candidates): the M values of K with largest
    C_K = |Diff(K)/Diff(K+1)|, descending, ties to the smaller K. K values
    whose Diff(K+1) vanishes are excluded; fewer than M eligible K simply
    yields a shorter list.
    """
    k_values = np.asarray(k_values, dtype=np.int64)
    traces = np.asarray(traces, dtype=float)
    if k_values.size != traces.size:
        raise ValueError("k_values and traces must align")
    if k_values.size >= 2 and not np.all(np.diff(k_values) == 1):
        raise ValueError("k_values must be consecutive ascending integers")

    exponent = 2.0 / p
    diff_k, diffs = [], []
    for i in range(1, k_values.size):
        k = int(k_values[i])
        diff_k.append(k)
        diffs.append((k - 1) ** exponent * traces[i - 1] - k**exponent * traces[i])
    diff_k = np.asarray(diff_k, dtype=np.int64)
    diffs = np.asarray(diffs, dtype=float)

    ratio_k, ratios = [], []
    for i in range(diffs.size - 1):
        if diffs[i + 1] == 0.0:
            continue
        ratio_k.append(int(diff_k[i]))
        ratios.append(abs(diffs[i] / diffs[i + 1]))
    ratio_k = np.asarray(ratio_k, dtype=np.int64)
    ratios = np.asarray(ratios, dtype=float)

    order = sorted(range(ratios.size), key=lambda i: (-ratios[i], ratio_k[i]))
    candidates = [int(ratio_k[i]) for i in order[:M]]
    trace = KrzanowskiTrace(k_values, traces, diff_k, diffs, ratio_k, ratios)
    return trace, candidates


def krzanowski_candidates(
    data: DataMatrix,
    k_range,
    M: int,
    starts: int = KMEANS_STARTS,
    seed: Seed = 0,
    threads: int = 1,
):
    """Rank candidate over-segmentation sizes by the Diff(K) ratio criterion.

    Runs best-of-`starts` K-means for every K in `k_range` (consecutive
    ascending; a leading K=1 is implied when the range starts at 2, since
    the K=1 trace is just the total scatter). Returns (KrzanowskiTrace,
    candidates, results), results a dict K -> KMeansResult.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    k_range = [int(k) for k in k_range]
    if k_range and k_range[0] == 2:
        k_range = [1] + k_range
    if len(k_range) < 3:
        raise ValueError("k_range too short to form any Diff ratio")

    children = spawn(seed, len(k_range))
    with ThreadPoolExecutor(max_workers=threads) as pool:
        runs = list(
            pool.map(
                lambda kc: best_of(data, kc[0], starts=starts, seed=kc[1]),
                zip(k_range, children),
            )
        )
    results: dict[int, KMeansResult] = dict(zip(k_range, runs))
    traces = [res.wgss for res in runs]

    trace, candidates = krzanowski_from_traces(k_range, traces, data.p, M)
    return trace, candidates, results
