"""Multi-start Lloyd K-means and the Diff(K)-ratio criterion for picking
candidate over-segmentation sizes."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._rng import Seed, generator, spawn
from .core import DataMatrix, Partition

MAX_SWEEPS = 100
# float64 cells (256 KiB) of the one score block that a group of
# lockstep Lloyd runs reuses on every sweep, so a group is
# max(1, BUDGET // (n*K)) runs. The block is the group's only working set
# that grows with K; 2**17 ran the blobs-dup K sweep 14% faster on one
# thread and 24% on two, but doubled its traced heap.
BUDGET = 2**15
# restarts behind each best-of K-means fit of the K0 search
KMEANS_STARTS = 10


@dataclass(frozen=True)
class KMeansResult:
    """The lowest-WGSS run of a K-means fit; `iterations` counts that run's
    sweeps alone."""

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
    # the K earliest first occurrences lie in any prefix holding K distinct ids
    size = K
    while True:
        size *= 2
        first = np.unique(row_ids[order[:size]], return_index=True)[1]
        if first.size >= K or size >= order.size:
            return x[order[np.sort(first)[:K]]]


def _scores(xa: np.ndarray, centers: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Scores ||c||^2 - 2 x.c from every row of x to every centre, for `xa`
    x's columns then a row of ones: centres (..., K, p) give a (..., n, K)
    block, written into `out` if given. A row's scores are its squared
    distances less ||x||^2, so they share the argmin."""
    # [x, 1] @ [-2c, ||c||^2]^T, one GEMM per run; one GEMM over all runs'
    # centres, or a transposed one, does not keep the bits
    ca = np.concatenate([-2.0 * centers, (centers**2).sum(axis=-1)[..., None]], axis=-1)
    return np.matmul(xa.T, np.swapaxes(ca, -1, -2), out=out)


def _repair_empty(
    x: np.ndarray, scores: np.ndarray, labels: np.ndarray, counts: np.ndarray
) -> None:
    """Reseed each empty cluster of one run, in place, at the observation
    farthest from its assigned centre among clusters that keep a member
    without it."""
    # the one reader of a true distance, and so of ||x||^2
    own_d2 = np.maximum((x**2).sum(axis=1) + scores[np.arange(labels.size), labels], 0.0)
    for k in np.flatnonzero(counts == 0):
        # a sole member stays put, or its cluster would empty in turn
        donor = counts[labels] >= 2
        far = int(np.argmax(np.where(donor, own_d2, -1.0)))
        counts[labels[far]] -= 1
        counts[k] += 1
        labels[far] = k


def _lockstep(data: DataMatrix, K: int, seeds: list[Seed], max_iter: int):
    """One Lloyd run per seed, advanced together one sweep at a time.

    Yields (index into `seeds`, labels, centres, sweeps) as each run stops,
    when its labels stop changing or at `max_iter`. Every run does exactly
    the arithmetic it would do alone.
    """
    x = data.values
    n, p = x.shape
    # x's columns then a row of ones: the scores' operand and the bincount weights
    xa = np.ones((p + 1, n))
    xa[:p] = x.T
    # run j's clusters own bins j*K .. j*K+K-1 of the stacked count
    offsets = np.arange(len(seeds))[:, None] * K
    centers = np.array([_init_macqueen(x, data.row_ids, K, generator(s)) for s in seeds])
    # the group's one score block; live runs fill its leading slices
    block = np.empty((len(seeds), n, K))
    labels = np.full((len(seeds), n), -1, dtype=np.int64)
    live = np.arange(len(seeds))
    sweeps = 0
    while live.size:
        sweeps += 1
        runs = live.size
        scores = _scores(xa, centers, out=block[:runs])
        new_labels = scores.argmin(axis=2)

        counts = np.bincount((new_labels + offsets[:runs]).ravel(), minlength=runs * K)
        counts = counts.reshape(runs, K)
        if not counts.all():
            for j in np.flatnonzero((counts == 0).any(axis=1)):
                _repair_empty(x, scores[j], new_labels[j], counts[j])

        changed = (new_labels != labels).any(axis=1)
        labels = new_labels
        # bin k of run j's column-d bincount sums x[i, d] over k's members i
        # in row order from 0.0, as one run alone sums them. One stacked
        # bincount would need a runs*n*p index and copy of x, larger than
        # the block at small K. These short calls hold the GIL: two threads
        # run them at 0.6-0.8 of the serial rate.
        sums = np.empty((runs, K, p))
        for j in range(runs):
            for d in range(p):
                sums[j, :, d] = np.bincount(labels[j], weights=xa[d], minlength=K)
        centers = sums / counts[:, :, None]

        if sweeps < max_iter and changed.all():
            continue
        stopped = ~changed | (sweeps == max_iter)
        for j in np.flatnonzero(stopped):
            yield int(live[j]), labels[j], centers[j], sweeps
        keep = np.flatnonzero(~stopped)
        live, labels, centers = live[keep], labels[keep], centers[keep]


def lloyd(
    data: DataMatrix,
    K: int,
    seed: Seed | list[Seed] = 0,
    max_iter: int = MAX_SWEEPS,
) -> KMeansResult:
    """K-means by Lloyd's algorithm from one seed, or the best run of a list.

    Each run seeds K distinct observations, then alternates assignment and
    mean updates until no label changes (or `max_iter` sweeps). Empty
    clusters are repaired by reseeding them at the observation farthest
    from its assigned centre among clusters that keep a member without it,
    keeping K fixed.

    The runs of a seed list advance in groups, sweep by sweep, a group
    holding as many runs as fit BUDGET score cells. The run with the
    lowest within-group sum of squares (WGSS) is returned, the earliest
    seed on ties, bit for bit as that seed alone gives it.
    """
    x = data.values
    n = data.n
    seeds = seed if isinstance(seed, list) else [seed]
    if not seeds:
        raise ValueError("seed list is empty")
    if K < 1 or K > n:
        raise ValueError(f"K={K} out of range for n={n}")
    if K > 1 and data.n_distinct < K:
        raise ValueError(f"K={K} exceeds the number of distinct rows")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")

    if K == 1:
        center = x.mean(axis=0, keepdims=True)
        wgss = float(((x - center) ** 2).sum())
        return KMeansResult(Partition(np.ones(n, dtype=np.int64)), center, wgss, 0)

    group = max(1, BUDGET // (n * K))
    best = None
    for first in range(0, len(seeds), group):
        runs = _lockstep(data, K, seeds[first : first + group], max_iter)
        for index, labels, centers, sweeps in runs:
            wgss = float(((x - centers[labels]) ** 2).sum())
            # lowest WGSS, the earliest seed on ties
            if best is None or (wgss, first + index) < best[:2]:
                best = (wgss, first + index, labels, centers, sweeps)
    wgss, _, labels, centers, sweeps = best
    return KMeansResult(Partition(labels + 1), centers.copy(), wgss, sweeps)


def best_of(
    data: DataMatrix,
    K: int,
    starts: int = KMEANS_STARTS,
    seed: Seed = 0,
) -> KMeansResult:
    """Best of `starts` independent runs by within-group sum of squares.

    Run i draws its stream from child i of `seed`, so enlarging `starts`
    only adds runs (the minimum over a superset can't get worse). All runs
    go to one `lloyd` call.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    return lloyd(data, K, seed=spawn(seed, starts))


def krzanowski_from_traces(traces, p: int):
    """Diff/ratio bookkeeping over the within-group scatter traces of
    K = 1..len(traces).

    Returns (KrzanowskiTrace, ranked): every K with a ratio
    C_K = |Diff(K)/Diff(K+1)|, largest first, ties to the smaller K. K values
    whose Diff(K+1) vanishes are excluded.
    """
    traces = np.asarray(traces, dtype=float)
    k_values = np.arange(1, traces.size + 1, dtype=np.int64)

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
    ranked = [int(ratio_k[i]) for i in order]
    trace = KrzanowskiTrace(k_values, traces, diff_k, diffs, ratio_k, ratios)
    return trace, ranked


def krzanowski_candidates(
    data: DataMatrix,
    kmax: int,
    seed: Seed = 0,
    threads: int = 1,
):
    """Rank candidate over-segmentation sizes by the Diff(K) ratio criterion.

    Runs best-of-KMEANS_STARTS K-means for every K in 1..kmax, K from
    child K-1 of `seed`, on `threads` workers (the K=1 trace is just the
    total scatter). Returns (KrzanowskiTrace, ranked, results): ranked as
    `krzanowski_from_traces` gives it, results a dict K -> KMeansResult.
    """
    if kmax < 2:
        raise ValueError(f"kmax={kmax} must be >= 2")

    k_range = range(1, kmax + 1)
    children = spawn(seed, kmax)

    def fit(kc):
        return best_of(data, kc[0], seed=kc[1])

    # each K's fit is independent; one thread runs them in the caller's thread
    if threads == 1:
        runs = list(map(fit, zip(k_range, children)))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(fit, zip(k_range, children)))
    results: dict[int, KMeansResult] = dict(zip(k_range, runs))
    traces = [res.wgss for res in runs]

    trace, ranked = krzanowski_from_traces(traces, data.p)
    return trace, ranked, results
