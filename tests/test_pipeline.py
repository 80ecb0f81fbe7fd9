"""End-to-end goldens for `run_kmh`: a seeded run reproduces the recorded
final labels, report co-association matrix, candidate partitions, merge
heights and merge pairs bit for bit, at one thread and at two."""

import hashlib
import warnings
from dataclasses import replace

import numpy as np
import pytest
from helpers import expand
from hypothesis import given, settings
from hypothesis import strategies as st

from kmh.core import DataMatrix
from kmh.datagen import gen_bullseye, gen_gaussian_blobs
from kmh.pipeline import KmhConfig, KmhError, run_kmh


def blobs_with_duplicates() -> DataMatrix:
    """4 separated blobs in p=3, 40 rows each, plus 60 rows copied from them."""
    centers = [[0, 0, 0], [9, 0, 0], [0, 9, 0], [0, 0, 9]]
    base = gen_gaussian_blobs(centers, [40] * 4, seed=5)
    pick = np.random.default_rng(6).integers(0, base.data.n, size=60)
    return DataMatrix(np.vstack([base.data.values, base.data.values[pick]]))


def sha256(arr: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


# SHA-256 of the final labels (little-endian int64) and of the report psi
# (little-endian float64; the signature table is expanded to the dense m x m
# psi), recorded with the broadcast-compare psi and the per-row MacQueen
# dedupe that preceded the current implementations; then of
# every candidate partition's labels concatenated in candidate order (int64),
# recorded with the frozenset single linkage; then of each K0's merge heights
# concatenated in K0 order (float64), recorded with the BLAS-free merge
# kernel and scipy's `chndtr`; then of the merge pairs (a, b) in the
# same order (int64), taken from those frozenset traces as the smallest
# entity of each side. Last recorded on Python 3.11.7, numpy 2.4.6 and
# scipy 1.17.1.
GOLDEN = {
    "bullseye": (
        lambda: gen_bullseye(seed=0).data,
        2,
        "6de8d4301db961aa494ccd878d679ab095dfff7aa023ddc4d156e26a55f1bf20",
        "5e61c9bae38dd47bc19f7a0770c904660f703c2ef07e7f63be92101b4e30996d",
        "b85452a3340ddaf62a8c5cb5a825effa396653a9e793b76335287a330d922b3f",
        "a0ee3ba6516a457972f3ce80556252f35894b2f53f58d8288589dd18f3b9d9a2",
        "bea05112a604534bd6f56d5057f815e0ba8853a65af9d2b00f5684a5d407fd2d",
    ),
    "blobs-dup": (
        blobs_with_duplicates,
        4,
        "dff0c4474227e8f4a9e0f4d46a7785e3998434568475ad17e32ff6e71591e6df",
        "3d95ad583bb8515315bff36e8c536d6c323c96c0a370a1990b9948b9a1862661",
        "b6c0228f1c67e8c8c8209e8aa744a6fb2c1a42614814b39c1697fafdae3ca9b9",
        "b14f0fa773bfcac3ad8cbbf5acb66a1d70fbafcbbc0371f623acb42a2230e8d9",
        "c54da885537adb0872fce443561b951d36a45b855c2e951bb72fead9c28d43e1",
    ),
}

# SHA-256 of the consensus votes of the same runs: per_replicate (int64) and
# the sorted (K*, frequency) pairs of frequencies (float64), recorded with the
# replicate loop that ran every one of the B replicates.
KSTAR_GOLDEN = {
    "bullseye": (
        "774307caca61d9060eedf70049a7b7ec58696a82b3706eff619cbf90695dcdd2",
        "9268b051ba6a96aea257eeb250cd5b236571933b55ff8fde1d3e3370b4cb243b",
    ),
    "blobs-dup": (
        "c4ca372e7480446eccbfd4f45f0633d1dda967f35513078c23e447d86b1ce5f2",
        "f0b05ec6449ff0bc3aa9fe2e81929f881639d34e6e84351b1a220162c548cb4c",
    ),
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seeded_run_matches_golden(name, threads):
    make_data, kstar, labels_sha, psi_sha, candidates_sha, heights_sha, pairs_sha = GOLDEN[name]
    report = run_kmh(make_data(), KmhConfig(seed=0, threads=threads))
    assert report.chosen_kstar == kstar
    assert sha256(report.final_partition.labels, "<i8") == labels_sha
    assert sha256(expand(report.similarity), "<f8") == psi_sha
    candidates = [c.partition.labels for c in report.candidate_partitions]
    assert sha256(np.concatenate(candidates), "<i8") == candidates_sha
    heights = [trace.heights for trace in report.merge_traces.values()]
    assert sha256(np.concatenate(heights), "<f8") == heights_sha
    pairs = [(a, b) for trace in report.merge_traces.values() for a, b, _ in trace.merges]
    assert sha256(np.array(pairs), "<i8") == pairs_sha
    votes = report.kstar_estimate
    per_replicate_sha, frequencies_sha = KSTAR_GOLDEN[name]
    assert len(votes.per_replicate) == 100
    assert sha256(np.asarray(votes.per_replicate), "<i8") == per_replicate_sha
    assert sha256(np.array(sorted(votes.frequencies.items())), "<f8") == frequencies_sha


@st.composite
def small_inputs(draw):
    """A 120-row bullseye, or 3-5 blobs of 25 rows in p=2..4 plus 50 rows
    copied from them, and a run seed."""
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        return gen_bullseye(n_core=20, n_ring=100, seed=seed).data, seed
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-8.0, 8.0, size=(draw(st.integers(3, 5)), draw(st.integers(2, 4))))
    base = gen_gaussian_blobs(centers, [25] * len(centers), seed=seed).data.values
    return DataMatrix(np.vstack([base, base[rng.integers(0, len(base), size=50)]])), seed


@settings(derandomize=True, max_examples=25, deadline=None)
@given(case=small_inputs())
def test_thread_count_leaves_the_run_unchanged(case):
    data, seed = case
    one, two = (run_kmh(data, KmhConfig(seed=seed, threads=threads)) for threads in (1, 2))
    assert two.final_partition.labels.tobytes() == one.final_partition.labels.tobytes()
    assert two.k0_candidates == one.k0_candidates
    assert [c.partition.labels.tobytes() for c in two.candidate_partitions] == [
        c.partition.labels.tobytes() for c in one.candidate_partitions
    ]
    assert [t.heights.tobytes() for t in two.merge_traces.values()] == [
        t.heights.tobytes() for t in one.merge_traces.values()
    ]


# SHA-256 of per_replicate (int64) and of the sorted frequencies (float64) of
# a bullseye run whose 200-row subsample is below its 400 core rows, so each
# of the B replicates draws its own rows. The cutoffs send 61 replicates to
# single linkage and 39 to complete. Recorded with the replicate loop that
# built one psi and ran one scipy linkage per replicate, then re-recorded for
# the complete linkage on the signature table, which breaks ties between
# heights in signature order instead of row order: one vote moved from 5 to 6.
REPLICATE_GOLDEN = (
    3,
    "db57cface212c43d51349a0edf6bc34147eb5df1a6405925a8914078014ef814",
    "9ad4bb379e9f311acae8d25de287d8c6de800511d31ec19f63d65c2ef23419cd",
)


@pytest.mark.parametrize("threads", [1, 2])
def test_subsampled_replicates_match_golden(threads):
    config = KmhConfig(seed=0, subsample=200, mean_cut=0.345, cv_cut=0.78, threads=threads)
    report = run_kmh(gen_bullseye(seed=0).data, config)
    kstar, per_replicate_sha, frequencies_sha = REPLICATE_GOLDEN
    votes = report.kstar_estimate
    assert report.chosen_kstar == kstar
    assert len(votes.per_replicate) == 100
    assert sha256(np.asarray(votes.per_replicate), "<i8") == per_replicate_sha
    assert sha256(np.array(sorted(votes.frequencies.items())), "<f8") == frequencies_sha


# SHA-256 of the final labels (int64), the report psi (float64) and every
# candidate partition's labels concatenated in candidate order (int64) of a
# standardized run on blobs_with_duplicates() plus one constant column,
# recorded with the standardize that warned through the warnings module and
# a run_kmh that silenced it and recomputed the zero-variance columns.
STANDARDIZE_GOLDEN = (
    4,
    ["zero-variance columns left unscaled: [3]"],
    "dff0c4474227e8f4a9e0f4d46a7785e3998434568475ad17e32ff6e71591e6df",
    "ae0eea1cba476ca5e9544ff3fd02fe424978c5c429396830fa4c3680055832fc",
    "71bd832b06a70b6a27da47c5bd0bcb3ae778313571a969efe1dd863acc89068a",
)


@pytest.mark.parametrize("threads", [1, 2])
def test_standardized_run_matches_golden(threads):
    base = blobs_with_duplicates()
    data = DataMatrix(np.column_stack([base.values, np.full(base.n, 2.5)]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_kmh(data, KmhConfig(standardize=True, threads=threads))
    assert caught == []  # the constant column is reported in report.warnings only
    kstar, messages, labels_sha, psi_sha, candidates_sha = STANDARDIZE_GOLDEN
    assert report.chosen_kstar == kstar
    assert report.warnings == messages
    assert sha256(report.final_partition.labels, "<i8") == labels_sha
    assert sha256(expand(report.similarity), "<f8") == psi_sha
    candidates = [c.partition.labels for c in report.candidate_partitions]
    assert sha256(np.concatenate(candidates), "<i8") == candidates_sha


def three_values() -> DataMatrix:
    """120 rows holding only 3 distinct values."""
    return DataMatrix(np.repeat([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]], 40, axis=0))


def test_resolve_fills_data_defaults_once():
    data = gen_bullseye(seed=0).data
    cfg = KmhConfig().resolve(data)
    assert isinstance(cfg, KmhConfig)
    assert (cfg.M, cfg.G) == (2, 20)
    assert cfg.resolve(data) == cfg


# one value out of range for each field that resolve checks
BROKEN = {
    "seed": -1,
    "M": 0,
    "L": 0,
    "B": 0,
    "G": 1,
    "kstar_known": 0,
    "scatter_frac": 1.0,
    "mean_cut": float("nan"),
    "cv_cut": float("nan"),
    "subsample": 1,
    "threads": 0,
}


@st.composite
def configs_and_data(draw):
    """Small data on a coarse grid, so rows repeat, and a config whose
    fields are drawn from their valid ranges or left None, with at most
    one field out of range."""
    n, p = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = DataMatrix(rng.integers(0, draw(st.integers(1, 6)), size=(n, p)).astype(float))
    top = max(2, data.n_distinct)
    maybe = lambda lo, hi: st.none() | st.integers(lo, hi)  # noqa: E731
    cutoffs = st.floats(allow_nan=False)
    config = KmhConfig(
        seed=draw(st.integers(0, 5)),
        M=draw(maybe(1, 12)),
        L=draw(st.integers(1, 4)),
        B=draw(st.integers(1, 4)),
        G=draw(maybe(2, top)),
        kstar_known=draw(maybe(1, top)),
        scatter_frac=draw(st.sampled_from([0.0, 0.001, 0.5, 0.999])),
        mean_cut=draw(cutoffs),
        cv_cut=draw(cutoffs),
        subsample=draw(maybe(2, 60)),
        standardize=draw(st.booleans()),
        threads=draw(st.integers(1, 3)),
    )
    broken = draw(st.sampled_from([None] * len(BROKEN) + sorted(BROKEN)))
    if broken is not None:
        config = replace(config, **{broken: BROKEN[broken]})
    return config, data


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=configs_and_data())
def test_resolve_is_idempotent(case):
    config, data = case
    try:
        cfg = config.resolve(data)
    except ValueError:
        return
    # only the None defaults change, and a second pass changes nothing
    assert cfg == replace(config, M=cfg.M, G=cfg.G)
    assert config.M in (None, cfg.M) and config.G in (None, cfg.G)
    assert cfg.resolve(data) == cfg


def test_duplicate_heavy_input_caps_default_g():
    data = three_values()
    assert KmhConfig().resolve(data).G == 3
    report = run_kmh(data, KmhConfig(B=10))
    assert report.config_resolved.G == 3
    assert report.final_partition.n == 120
    with pytest.raises(ValueError, match="distinct"):
        KmhConfig(G=10).resolve(data)
    with pytest.raises(ValueError, match="distinct"):
        run_kmh(DataMatrix(np.ones((20, 2))))


@pytest.mark.parametrize(
    "config, message",
    [
        (KmhConfig(G=1), "G=1"),
        (KmhConfig(M=0), "M, L, B"),
        (KmhConfig(threads=0), "threads"),
        (KmhConfig(kstar_known=4), "kstar"),
        (KmhConfig(subsample=1), "subsample"),
        (KmhConfig(subsample=0), "subsample"),
        (KmhConfig(scatter_frac=1.5), "scatter_frac"),
        (KmhConfig(scatter_frac=-0.1), "scatter_frac"),
        (KmhConfig(seed=-1), "seed"),
        (KmhConfig(mean_cut=float("nan")), "NaN"),
    ],
)
def test_bad_config_fails_before_clustering(config, message):
    # a caller catching ValueError still catches a bad setting
    assert issubclass(KmhError, ValueError)
    with pytest.raises(KmhError, match=message):
        run_kmh(three_values(), config)


@pytest.mark.parametrize("kstar", [3, 5, 10])
def test_known_kstar_above_every_candidate_falls_back_to_kmax(kstar):
    # M=1 and G=10 here, and the one Diff-ratio candidate is K0=2
    data = DataMatrix(np.random.default_rng(0).normal(size=(100, 2)))
    report = run_kmh(data, KmhConfig(kstar_known=kstar))
    assert report.k0_candidates == [10]
    assert report.warnings == [
        f"K0=2 below known kstar={kstar}; skipped",
        f"no K0 candidate reaches known kstar={kstar}; using K0=10",
    ]
    assert report.chosen_kstar == report.final_partition.K == kstar


def test_known_kstar_above_kmax_fails_before_the_k_sweep(monkeypatch):
    # scatter removal leaves 3 distinct core rows, so kmax=3 < kstar=5 <= G=5
    rows = np.vstack([np.repeat(np.eye(3, 2), 6, axis=0), [[40.0, 40.0], [-40.0, 40.0]]])
    monkeypatch.setattr("kmh.pipeline.krzanowski_candidates", None)
    with pytest.raises(KmhError, match="known kstar=5 exceeds the largest K0=3"):
        run_kmh(DataMatrix(rows), KmhConfig(G=5, kstar_known=5, scatter_frac=0.2))


def test_core_with_one_distinct_row_fails_before_the_k_sweep(monkeypatch):
    # scatter removal drops the 10 singletons and leaves 1990 equal rows
    rows = np.vstack([np.zeros((1990, 2)), np.arange(1, 11)[:, None] * [[50.0, -30.0]]])
    monkeypatch.setattr("kmh.pipeline.krzanowski_candidates", None)
    with pytest.raises(KmhError, match="fewer than 2 distinct observations remain"):
        run_kmh(DataMatrix(rows), KmhConfig())


def assert_padded_k0_search_at_kmax_2(report):
    # the K sweep fits K=1 and K=2, forms no Diff ratio, and padding gives K0=2
    assert report.k0_candidates == [2]
    assert report.krz_trace.k_values.tolist() == [1, 2]
    assert report.krz_trace.ratio_k.size == 0
    assert report.warnings[0] == "only 0 eligible Diff-ratio candidates; padding from K=2 down"


def test_n_8_searches_k0_at_kmax_2():
    # G = floor(sqrt(8)) = 2
    data = DataMatrix(np.random.default_rng(0).normal(size=(8, 2)))
    assert_padded_k0_search_at_kmax_2(run_kmh(data))


def test_core_of_two_distinct_rows_searches_k0_and_separates_them():
    rows = np.random.default_rng(2).permutation(np.repeat([[0.0, 0.0], [3.0, 1.0]], 10, axis=0))
    report = run_kmh(DataMatrix(rows))
    assert_padded_k0_search_at_kmax_2(report)
    labels = report.final_partition.labels
    first = (rows == rows[0]).all(axis=1)
    assert len(set(labels[first])) == len(set(labels[~first])) == 1
    assert labels[first][0] != labels[~first][0]
