"""End-to-end orchestration: scatter removal, candidate over-segmentations,
entity merging, consensus on the cluster count, and final selection."""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._rng import generator, spawn
from .consensus import (
    DEFAULT_CV_CUT,
    DEFAULT_MEAN_CUT,
    KStarEstimate,
    SimilarityMatrix,
    co_association_table,
    estimate_kstar,
    mean_ari_scores,
)
from .core import SCATTER_LABEL, DataMatrix, Partition
from .gaussdist import entity_distance_matrix, fit_entity, variance_floor
from .hierarchy import ChangePointReport, MergeTrace, change_points, cut_to_partition, single_linkage
from .kmeans import KrzanowskiTrace, krzanowski_candidates
from .scatter import ScatterResult, remove_scatter


# consensus replicates and the report psi use at most this many core rows
DEFAULT_SUBSAMPLE_CAP = 500


# the substreams of config.seed, in the order `run_kmh` spawns them
SEED_STREAMS = ("scatter", "krzanowski", "consensus", "report_subsample")


class KmhError(ValueError):
    """Raised when the data and settings admit no run: a setting out of
    range, too few distinct core rows, or K* too high."""


def default_m(n: int, p: int) -> int:
    return max(1, min(10, int(np.floor(np.sqrt(n * p) / 10.0))))


def default_g(n: int) -> int:
    return max(2, int(np.floor(np.sqrt(n))))


@dataclass(frozen=True)
class KmhConfig:
    """The tunables, one per `kmh run` flag; None fields resolve from the
    data at run time. `kmh run` passes only the flags given, so these
    defaults are the CLI's too.

    What no flag sets is a constant of its module: the consensus cut
    `consensus.DEFAULT_THRESHOLD`, the `kmeans.KMEANS_STARTS` restarts per
    K of the K0 search, and the scatter run's `default_scatter_starts`.
    """

    seed: int = 0
    M: int | None = None
    L: int = 3
    B: int = 100
    G: int | None = None
    kstar_known: int | None = None
    scatter_frac: float = 0.001
    mean_cut: float = DEFAULT_MEAN_CUT
    cv_cut: float = DEFAULT_CV_CUT
    subsample: int | None = None
    standardize: bool = False
    threads: int = 1

    def resolve(self, data: DataMatrix) -> KmhConfig:
        """This config with every None default that depends on the data
        filled in; raises `KmhError` on values no run could use. Idempotent."""
        n, p = data.n, data.p
        if data.n_distinct < 2:
            raise KmhError("need at least 2 distinct observations")
        cfg = replace(
            self,
            M=self.M if self.M is not None else default_m(n, p),
            G=self.G if self.G is not None else min(default_g(n), data.n_distinct),
        )
        if min(cfg.M, cfg.L, cfg.B, cfg.threads) < 1:
            raise KmhError("M, L, B and threads must all be >= 1")
        if not (2 <= cfg.G <= data.n_distinct):
            raise KmhError(
                f"G={cfg.G} must be in [2, {data.n_distinct}], the number of distinct observations"
            )
        if cfg.kstar_known is not None and not (1 <= cfg.kstar_known <= cfg.G):
            raise KmhError(f"kstar={cfg.kstar_known} must be in [1, G={cfg.G}]")
        if cfg.subsample is not None and cfg.subsample < 2:
            raise KmhError(f"subsample={cfg.subsample} must be >= 2")
        if not (0.0 <= cfg.scatter_frac < 1.0):
            raise KmhError(f"scatter_frac={cfg.scatter_frac} must be in [0, 1)")
        if cfg.seed < 0:
            raise KmhError(f"seed={cfg.seed} must be >= 0")
        if np.isnan([cfg.mean_cut, cfg.cv_cut]).any():
            raise KmhError(f"mean_cut={cfg.mean_cut} and cv_cut={cfg.cv_cut} must not be NaN")
        return cfg


@dataclass(frozen=True)
class CandidatePartition:
    k0: int
    kstar: int
    partition: Partition


@dataclass(frozen=True)
class KmhReport:
    final_partition: Partition
    chosen_index: int
    chosen_kstar: int
    selection_pool: list
    ari_matrix: np.ndarray
    mean_ari: np.ndarray
    candidate_partitions: list
    k0_candidates: list
    krz_trace: KrzanowskiTrace
    merge_traces: dict
    change_point_reports: dict
    kstar_estimate: KStarEstimate | None
    similarity: SimilarityMatrix
    scatter: ScatterResult
    config_resolved: KmhConfig
    warnings: list
    timings: dict = field(default_factory=dict)


def standardize(data: DataMatrix) -> tuple[DataMatrix, list[int]]:
    """Center each column and scale to unit variance (divisor n-1).

    Returns the standardized data and the indices of the zero-variance
    columns, which pass through untouched.
    """
    x = data.values.copy()
    sd = x.std(axis=0, ddof=1)
    scale = sd > 0.0
    x[:, scale] = (x[:, scale] - x[:, scale].mean(axis=0)) / sd[scale]
    return DataMatrix(x), np.flatnonzero(~scale).tolist()


def _to_full_partition(core_labels: np.ndarray, core_indices: np.ndarray, n: int) -> Partition:
    labels = np.full(n, SCATTER_LABEL, dtype=np.int64)
    labels[core_indices] = core_labels
    return Partition(labels)


def _entity_phase(core_data, km_result, floor):
    """Fit entities from one K-means result and build the full merge trace."""
    labels = km_result.partition.labels
    entities = [
        fit_entity(core_data, np.flatnonzero(labels == k + 1), floor=floor)
        for k in range(km_result.K)
    ]
    dist = entity_distance_matrix(entities)
    trace, _ = single_linkage(dist, stop_at=1)
    return trace


def _pad(values: list, size: int, top: int) -> list:
    """`values` topped up to `size` entries with the unused integers top,
    top-1, ..., 2, then cut to `size`."""
    padded = list(values)
    for k in range(top, 1, -1):
        if len(padded) >= size:
            break
        if k not in padded:
            padded.append(k)
    return padded[:size]


def run_kmh(data: DataMatrix, config: KmhConfig = KmhConfig()) -> KmhReport:
    """Execute the full merge pipeline and report every intermediate product.

    Deterministic for a fixed config: all randomness flows from config.seed
    through fixed, per-phase substreams.
    """
    cfg = config.resolve(data)
    timings: dict[str, float] = {}
    warnings: list[str] = []
    stream_scatter, stream_krz, stream_consensus, stream_report = spawn(cfg.seed, len(SEED_STREAMS))

    t = time.monotonic()
    if cfg.standardize:
        data, unscaled = standardize(data)
        if unscaled:
            warnings.append(f"zero-variance columns left unscaled: {unscaled}")
    timings["standardize"] = time.monotonic() - t

    t = time.monotonic()
    scat = remove_scatter(data, cfg.G, frac=cfg.scatter_frac, seed=stream_scatter)
    core_indices = scat.core_indices
    core = data.values[core_indices]
    if not (core[1:] != core[:1]).any():
        raise KmhError("fewer than 2 distinct observations remain after scatter removal")
    core_data = DataMatrix(core)
    n_star = core_data.n
    timings["scatter"] = time.monotonic() - t

    t = time.monotonic()
    kmax = min(cfg.G, core_data.n_distinct)
    if cfg.kstar_known is not None and cfg.kstar_known > kmax:
        raise KmhError(f"known kstar={cfg.kstar_known} exceeds the largest K0={kmax}")
    krz_trace, ranked, results = krzanowski_candidates(
        core_data, kmax, seed=stream_krz, threads=cfg.threads
    )
    k0_candidates = ranked[: cfg.M]
    if len(k0_candidates) < cfg.M:
        warnings.append(
            f"only {len(k0_candidates)} eligible Diff-ratio candidates; padding from K={kmax} down"
        )
        k0_candidates = _pad(k0_candidates, cfg.M, kmax)
    timings["krzanowski"] = time.monotonic() - t

    t = time.monotonic()
    floor = variance_floor(core_data)
    usable_k0: list[int] = []
    for k0 in k0_candidates:
        if cfg.kstar_known is not None and cfg.kstar_known > k0:
            warnings.append(f"K0={k0} below known kstar={cfg.kstar_known}; skipped")
        else:
            usable_k0.append(k0)
    if not usable_k0:
        warnings.append(f"no K0 candidate reaches known kstar={cfg.kstar_known}; using K0={kmax}")
        usable_k0 = [kmax]

    merge_traces: dict[int, MergeTrace] = {
        k0: _entity_phase(core_data, results[k0], floor) for k0 in usable_k0
    }
    entity_parts = {
        k0: _to_full_partition(results[k0].partition.labels, core_indices, data.n)
        for k0 in usable_k0
    }

    def cut(k0: int, kstar: int) -> CandidatePartition:
        return CandidatePartition(
            k0, kstar, cut_to_partition(merge_traces[k0], kstar, entity_parts[k0])
        )

    cp_reports: dict[int, ChangePointReport] = {}
    candidates: list[CandidatePartition] = []
    for k0 in usable_k0:
        if cfg.kstar_known is not None:
            kstars = [cfg.kstar_known]
        else:
            report = change_points(merge_traces[k0], min(cfg.L, max(1, k0 - 1)))
            cp_reports[k0] = report
            kstars = _pad(report.candidate_kstars, cfg.L, k0)
            if len(kstars) < cfg.L:
                warnings.append(f"K0={k0} yields only {len(kstars)} stopping candidates")
        candidates += [cut(k0, kstar) for kstar in kstars]
    timings["partitions"] = time.monotonic() - t

    t = time.monotonic()
    take = min(n_star, cfg.subsample if cfg.subsample is not None else DEFAULT_SUBSAMPLE_CAP)
    kstar_estimate = None
    if cfg.kstar_known is not None:
        chosen_kstar = cfg.kstar_known
        pool_candidates = candidates
    else:
        kstar_estimate = estimate_kstar(
            [c.partition for c in candidates],
            B=cfg.B,
            subsample=take,
            seed=stream_consensus,
            mean_cut=cfg.mean_cut,
            cv_cut=cfg.cv_cut,
        )
        chosen_kstar = kstar_estimate.median_kstar
        pool_candidates = []
        for k0 in usable_k0:
            if chosen_kstar > k0:
                warnings.append(f"K0={k0} below consensus kstar={chosen_kstar}; dropped from pool")
                continue
            pool_candidates.append(cut(k0, chosen_kstar))
        if not pool_candidates:
            raise KmhError(f"no K0 candidate can host kstar={chosen_kstar}")
    timings["consensus"] = time.monotonic() - t

    t = time.monotonic()
    ari_matrix, mean_ari = mean_ari_scores([c.partition for c in pool_candidates])
    chosen_index = int(np.argmax(mean_ari))

    rng = generator(stream_report)
    sample = np.sort(rng.choice(core_indices, size=take, replace=False))
    similarity = co_association_table([c.partition for c in candidates], sample)
    timings["selection"] = time.monotonic() - t

    return KmhReport(
        final_partition=pool_candidates[chosen_index].partition,
        chosen_index=chosen_index,
        chosen_kstar=chosen_kstar,
        selection_pool=pool_candidates,
        ari_matrix=ari_matrix,
        mean_ari=mean_ari,
        candidate_partitions=candidates,
        k0_candidates=usable_k0,
        krz_trace=krz_trace,
        merge_traces=merge_traces,
        change_point_reports=cp_reports,
        kstar_estimate=kstar_estimate,
        similarity=similarity,
        scatter=scat,
        config_resolved=cfg,
        warnings=warnings,
        timings=timings,
    )
