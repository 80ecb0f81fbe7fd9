"""End-to-end orchestration: scatter removal, candidate over-segmentations,
entity merging, consensus on the cluster count, and final selection."""

from __future__ import annotations

import time
import warnings as _warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._rng import Seed, generator, spawn
from .consensus import (
    DEFAULT_CV_CUT,
    DEFAULT_MEAN_CUT,
    DEFAULT_SUBSAMPLE_CAP,
    DEFAULT_THRESHOLD,
    KStarEstimate,
    SimilarityMatrix,
    co_association,
    estimate_kstar,
    mean_ari_scores,
)
from .core import SCATTER_LABEL, DataMatrix, Partition
from .gaussdist import entity_distance_matrix, fit_entity, variance_floor
from .hierarchy import ChangePointReport, MergeTrace, change_points, cut_to_partition, single_linkage
from .kmeans import KrzanowskiTrace, best_of, krzanowski_candidates
from .scatter import ScatterResult, default_scatter_starts, remove_scatter


class KmhError(RuntimeError):
    """Raised when no candidate over-segmentation survives."""


def default_m(n: int, p: int) -> int:
    return max(1, min(10, int(np.floor(np.sqrt(n * p) / 10.0))))


def default_g(n: int) -> int:
    return max(2, int(np.floor(np.sqrt(n))))


@dataclass(frozen=True)
class KmhConfig:
    """All tunables; None fields resolve from the data at run time."""

    seed: int = 0
    M: int | None = None
    L: int = 3
    B: int = 100
    G: int | None = None
    kstar_known: int | None = None
    kmeans_starts: int = 10
    scatter_starts: int | None = None
    scatter_frac: float = 0.001
    threshold: float = DEFAULT_THRESHOLD
    mean_cut: float = DEFAULT_MEAN_CUT
    cv_cut: float = DEFAULT_CV_CUT
    subsample: int | None = None
    standardize: bool = False
    init: str = "macqueen"
    cp_alt_mapping: bool = False
    threads: int = 1

    def resolve(self, n: int, p: int) -> dict:
        """Concrete value of every parameter for this dataset size."""
        resolved = {
            "seed": self.seed,
            "M": self.M if self.M is not None else default_m(n, p),
            "L": self.L,
            "B": self.B,
            "G": self.G if self.G is not None else default_g(n),
            "kstar_known": self.kstar_known,
            "kmeans_starts": self.kmeans_starts,
            "scatter_starts": (
                self.scatter_starts
                if self.scatter_starts is not None
                else default_scatter_starts(n, p)
            ),
            "scatter_frac": self.scatter_frac,
            "threshold": self.threshold,
            "mean_cut": self.mean_cut,
            "cv_cut": self.cv_cut,
            "subsample": self.subsample,  # capped against n* during the run
            "standardize": self.standardize,
            "init": self.init,
            "cp_alt_mapping": self.cp_alt_mapping,
            "threads": self.threads,
        }
        if resolved["M"] < 1 or resolved["L"] < 1 or resolved["B"] < 1:
            raise ValueError("M, L and B must all be >= 1")
        if not (2 <= resolved["G"] <= n):
            raise ValueError(f"G={resolved['G']} out of range for n={n}")
        if resolved["kstar_known"] is not None and resolved["kstar_known"] < 1:
            raise ValueError("kstar_known must be >= 1")
        return resolved


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
    krz_trace: KrzanowskiTrace | None
    merge_traces: dict
    change_point_reports: dict
    kstar_estimate: KStarEstimate | None
    similarity: SimilarityMatrix
    scatter: ScatterResult
    config_resolved: dict
    warnings: list
    timings: dict = field(default_factory=dict)


def constant_columns(data: DataMatrix) -> list:
    sd = data.values.std(axis=0, ddof=1)
    return [int(i) for i in np.flatnonzero(sd == 0.0)]


def standardize(data: DataMatrix) -> DataMatrix:
    """Center each column and scale to unit variance (divisor n-1).

    Zero-variance columns pass through untouched, with a warning.
    """
    x = data.values.copy()
    sd = x.std(axis=0, ddof=1)
    scale = sd > 0.0
    if not scale.all():
        bad = np.flatnonzero(~scale).tolist()
        _warnings.warn(f"columns {bad} have zero variance and were left unscaled")
    x[:, scale] = (x[:, scale] - x[:, scale].mean(axis=0)) / sd[scale]
    return DataMatrix(x)


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


def _pad_kstars(kstars: list, L: int, k0: int) -> list:
    padded = list(kstars)
    for k in range(k0, 1, -1):
        if len(padded) >= L:
            break
        if k not in padded:
            padded.append(k)
    return padded[:L]


def run_kmh(data: DataMatrix, config: KmhConfig = KmhConfig()) -> KmhReport:
    """Execute the full merge pipeline and report every intermediate product.

    Deterministic for a fixed config: all randomness flows from config.seed
    through fixed, per-phase substreams.
    """
    cfg = config.resolve(data.n, data.p)
    timings: dict[str, float] = {}
    warnings: list[str] = []
    stream_scatter, stream_krz, stream_consensus, stream_report = spawn(cfg["seed"], 4)

    t = time.monotonic()
    if cfg["standardize"]:
        const = constant_columns(data)
        if const:
            warnings.append(f"zero-variance columns left unscaled: {const}")
        with _warnings.catch_warnings():
            _warnings.simplefilter("ignore")
            data = standardize(data)
    timings["standardize"] = time.monotonic() - t

    t = time.monotonic()
    scat = remove_scatter(
        data, cfg["G"], frac=cfg["scatter_frac"], starts=cfg["scatter_starts"], seed=stream_scatter
    )
    core_indices = scat.core_indices
    if core_indices.size < 2:
        raise KmhError("fewer than 2 observations remain after scatter removal")
    core_data = DataMatrix(data.values[core_indices])
    n_star = core_data.n
    timings["scatter"] = time.monotonic() - t

    t = time.monotonic()
    kmax = min(cfg["G"], core_data.n_distinct)
    krz_trace = None
    results = {}
    if kmax >= 3:
        krz_trace, k0_candidates, results = krzanowski_candidates(
            core_data,
            range(2, kmax + 1),
            M=cfg["M"],
            starts=cfg["kmeans_starts"],
            seed=stream_krz,
            init=cfg["init"],
            keep_results=True,
            threads=cfg["threads"],
        )
        if len(k0_candidates) < cfg["M"]:
            warnings.append(
                f"only {len(k0_candidates)} eligible Diff-ratio candidates; padding from K={kmax} down"
            )
            for k in range(kmax, 1, -1):
                if len(k0_candidates) >= cfg["M"]:
                    break
                if k not in k0_candidates:
                    k0_candidates.append(k)
    else:
        warnings.append(f"too few distinct observations for the K0 search; using K0={kmax}")
        k0_candidates = [kmax]
        results[kmax] = best_of(
            core_data, kmax, starts=cfg["kmeans_starts"], seed=stream_krz, init=cfg["init"]
        )
    timings["krzanowski"] = time.monotonic() - t

    t = time.monotonic()
    floor = variance_floor(core_data)
    usable_k0: list[int] = []
    for k0 in k0_candidates:
        if k0 > n_star:
            warnings.append(f"K0={k0} exceeds n*={n_star}; skipped")
        elif cfg["kstar_known"] is not None and cfg["kstar_known"] > k0:
            warnings.append(f"K0={k0} below known kstar={cfg['kstar_known']}; skipped")
        else:
            usable_k0.append(k0)
    if not usable_k0:
        raise KmhError("no usable K0 candidate remains")

    if cfg["threads"] > 1:
        with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
            traces = list(
                pool.map(lambda k0: _entity_phase(core_data, results[k0], floor), usable_k0)
            )
    else:
        traces = [_entity_phase(core_data, results[k0], floor) for k0 in usable_k0]
    merge_traces: dict[int, MergeTrace] = dict(zip(usable_k0, traces))

    cp_reports: dict[int, ChangePointReport] = {}
    candidates: list[CandidatePartition] = []
    for k0 in usable_k0:
        trace = merge_traces[k0]
        entity_part = _to_full_partition(
            results[k0].partition.labels, core_indices, data.n
        )
        if cfg["kstar_known"] is not None:
            kstars = [cfg["kstar_known"]]
        else:
            report = change_points(trace, min(cfg["L"], max(1, k0 - 1)), cfg["cp_alt_mapping"])
            cp_reports[k0] = report
            kstars = _pad_kstars(report.candidate_kstars, cfg["L"], k0)
            if len(kstars) < cfg["L"]:
                warnings.append(f"K0={k0} yields only {len(kstars)} stopping candidates")
        for kstar in kstars:
            candidates.append(
                CandidatePartition(k0, kstar, cut_to_partition(trace, kstar, entity_part))
            )
    timings["partitions"] = time.monotonic() - t

    t = time.monotonic()
    kstar_estimate = None
    if cfg["kstar_known"] is not None:
        chosen_kstar = cfg["kstar_known"]
        pool_candidates = candidates
    else:
        sub = cfg["subsample"] if cfg["subsample"] is not None else DEFAULT_SUBSAMPLE_CAP
        kstar_estimate = estimate_kstar(
            [c.partition for c in candidates],
            B=cfg["B"],
            subsample=min(sub, n_star),
            seed=stream_consensus,
            threshold=cfg["threshold"],
            mean_cut=cfg["mean_cut"],
            cv_cut=cfg["cv_cut"],
        )
        chosen_kstar = kstar_estimate.median_kstar
        pool_candidates = []
        for k0 in usable_k0:
            if chosen_kstar > k0:
                warnings.append(f"K0={k0} below consensus kstar={chosen_kstar}; dropped from pool")
                continue
            entity_part = _to_full_partition(
                results[k0].partition.labels, core_indices, data.n
            )
            pool_candidates.append(
                CandidatePartition(
                    k0, chosen_kstar, cut_to_partition(merge_traces[k0], chosen_kstar, entity_part)
                )
            )
        if not pool_candidates:
            raise KmhError(f"no K0 candidate can host kstar={chosen_kstar}")
    timings["consensus"] = time.monotonic() - t

    t = time.monotonic()
    pool_parts = [c.partition for c in pool_candidates]
    if len(pool_parts) == 1:
        ari_matrix = np.ones((1, 1))
        mean_ari = np.ones(1)
        chosen_index = 0
    else:
        ari_matrix, mean_ari = mean_ari_scores(pool_parts)
        chosen_index = int(np.argmax(mean_ari))
    final = pool_parts[chosen_index]

    sub_cap = cfg["subsample"] if cfg["subsample"] is not None else DEFAULT_SUBSAMPLE_CAP
    take = min(n_star, sub_cap)
    rng = generator(stream_report)
    sample = np.sort(rng.choice(core_indices, size=take, replace=False))
    psi = co_association([c.partition for c in candidates], sample)
    similarity = SimilarityMatrix(psi, len(candidates), sample)
    timings["selection"] = time.monotonic() - t

    return KmhReport(
        final_partition=final,
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
