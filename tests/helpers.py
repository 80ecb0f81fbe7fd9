"""Oracles and probes shared by the test modules."""

import tracemalloc

import numpy as np

from kmh import consensus


def co_association(partitions, indices: np.ndarray) -> np.ndarray:
    """Dense share of `partitions` placing each pair of `indices` in one
    cluster: one float32 GEMM over every row, then a float64 copy."""
    labels = np.stack([part.labels[indices] for part in partitions], axis=1)
    return consensus._co_counts(partitions, labels).astype(np.float64) / float(len(partitions))


def expand(sim) -> np.ndarray:
    """The dense psi a `SimilarityMatrix` table stands for."""
    return sim.share[np.ix_(sim.sig, sim.sig)]


def traced_peak(fn) -> int:
    """Peak bytes allocated above the starting level while fn runs."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
