"""Lloyd iterations, multi-start behavior, and the Diff-ratio criterion."""

import inspect
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st

import kmh.kmeans as kmeans
from kmh._rng import generator, spawn
from kmh.core import DataMatrix, Partition
from kmh.kmeans import (
    BUDGET,
    KMEANS_STARTS,
    MAX_SWEEPS,
    KMeansResult,
    _init_macqueen,
    _scores,
    best_of,
    krzanowski_candidates,
    krzanowski_from_traces,
    lloyd,
)


def wgss_direct(data, result):
    total = 0.0
    for k in range(result.K):
        members = data.values[result.partition.labels == k + 1]
        total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


def test_unit_square_four_clusters():
    data = DataMatrix(np.array([[0.0, 0], [0, 1], [1, 0], [1, 1]]))
    res = lloyd(data, 4, seed=0)
    assert res.wgss == 0.0
    assert sorted(np.bincount(res.partition.labels)[1:].tolist()) == [1, 1, 1, 1]


def test_two_pairs_hand_solution():
    data = DataMatrix(np.array([[0.0, 0], [0, 1], [10, 0], [10, 1]]))
    res = best_of(data, 2, starts=10, seed=1)
    assert res.wgss == pytest.approx(1.0)
    assert sorted(res.centers[:, 0].tolist()) == [0.0, 10.0]
    assert sorted(res.centers[:, 1].tolist()) == [0.5, 0.5]


def test_single_cluster_is_grand_mean():
    rng = np.random.default_rng(3)
    data = DataMatrix(rng.normal(size=(40, 3)))
    res = lloyd(data, 1)
    assert np.allclose(res.centers[0], data.values.mean(axis=0))
    total = ((data.values - data.values.mean(axis=0)) ** 2).sum()
    assert res.wgss == pytest.approx(total)


def test_wgss_consistent_and_centers_are_means():
    rng = np.random.default_rng(4)
    data = DataMatrix(rng.normal(size=(120, 2)))
    res = best_of(data, 5, starts=5, seed=2)
    assert res.wgss == pytest.approx(wgss_direct(data, res), rel=1e-8)
    for k in range(5):
        members = data.values[res.partition.labels == k + 1]
        assert np.allclose(res.centers[k], members.mean(axis=0))


def test_best_of_monotone_in_starts():
    rng = np.random.default_rng(5)
    data = DataMatrix(rng.normal(size=(60, 2)) + np.repeat([[0, 0], [6, 0], [0, 6]], 20, axis=0))
    w1 = best_of(data, 3, starts=1, seed=7).wgss
    w20 = best_of(data, 3, starts=20, seed=7).wgss
    assert w20 <= w1
    assert best_of(data, 3, starts=1, seed=7).wgss == w1  # deterministic


def test_k_exceeding_distinct_rows():
    data = DataMatrix(np.array([[1.0, 1], [1, 1], [2, 2], [2, 2]]))
    with pytest.raises(ValueError):
        lloyd(data, 3, seed=0)
    res = lloyd(data, 2, seed=0)
    assert res.wgss == 0.0


def test_distinct_rows_equate_signed_zeros():
    data = DataMatrix(np.array([[0.0, 1], [-0.0, 1], [1, -0.0], [1, 0.0], [2, 2], [0.0, 1]]))
    assert data.n_distinct == 3
    ids = data.row_ids
    assert ids[0] == ids[1] == ids[5] and ids[2] == ids[3]
    assert len({ids[0], ids[2], ids[4]}) == 3
    with pytest.raises(ValueError, match="distinct rows"):
        lloyd(data, 4, seed=0)
    assert lloyd(data, 3, seed=0).wgss == 0.0


def macqueen_reference(x, K, rng):
    """MacQueen seeding by per-row compares: walk a random permutation and
    keep each row that equals none kept so far, until K are kept."""
    chosen = []
    for idx in rng.permutation(x.shape[0]):
        if any(np.array_equal(x[idx], x[c]) for c in chosen):
            continue
        chosen.append(int(idx))
        if len(chosen) == K:
            break
    return x[chosen]


def test_macqueen_seeds_match_per_row_reference():
    # each of 9 grid points 6 times, signed-zero copies of two of them,
    # and a -0.0/0.0 pair: 10 distinct rows, shuffled per seed
    grid = np.array([[a, b] for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)])
    extra = [[-0.0, 1.0], [1.0, -0.0], [0.0, 7.0], [-0.0, 7.0]]
    rows = np.vstack([np.repeat(grid, 6, axis=0), extra])
    for seed in range(20):
        data = DataMatrix(rows[np.random.default_rng(100 + seed).permutation(rows.shape[0])])
        assert data.n_distinct == 10
        for K in (2, 3, 6, 10):
            got = _init_macqueen(data.values, data.row_ids, K, np.random.default_rng(seed))
            want = macqueen_reference(data.values, K, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()  # same rows, -0.0 vs 0.0 included
    # 990 of 1000 rows repeat one value, so the prefix of the permutation
    # searched for K distinct rows must grow, up to all n rows at K=11
    rows = np.vstack([np.full((990, 2), 0.5), np.arange(20.0).reshape(10, 2)])
    for seed in range(20):
        data = DataMatrix(rows[np.random.default_rng(200 + seed).permutation(1000)])
        for K in (3, 11):
            got = _init_macqueen(data.values, data.row_ids, K, np.random.default_rng(seed))
            want = macqueen_reference(data.values, K, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()


def test_empty_cluster_repair_keeps_k():
    # far outlier forces a seed configuration that can empty a cluster
    pts = np.vstack([np.zeros((10, 2)), np.eye(2), [[100.0, 100.0]]])
    data = DataMatrix(pts + np.arange(13)[:, None] * 1e-6)
    for seed in range(10):
        res = lloyd(data, 4, seed=seed)
        assert res.partition.K == 4
        assert np.bincount(res.partition.labels, minlength=5)[1:].min() >= 1


def draw_1856():
    # draw 1856 of this generator: the farthest point sits alone in its
    # cluster, and moving it used to empty that cluster (0/0 centre)
    rng = np.random.default_rng(0)
    for draw in range(1857):
        n, p = rng.integers(6, 40), rng.integers(1, 3)
        x = rng.standard_normal((n, p)) * rng.choice([1, 5, 50], size=(n, 1))
        K = int(rng.integers(3, min(n, 10) + 1))
    assert (n, p, K) == (24, 2, 9)
    return x, K


def test_repair_never_takes_a_sole_member():
    x, K = draw_1856()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = lloyd(DataMatrix(x), K, seed=1856)
    assert np.isfinite(res.centers).all()
    assert res.partition.K == K
    assert np.bincount(res.partition.labels, minlength=K + 1)[1:].min() >= 1


def with_ones(x):
    """x's columns, then a row of ones: the (p+1, n) operand of `_scores`."""
    return np.vstack([x.T, np.ones(x.shape[0])])


def test_scores_are_the_expanded_norm_form_less_x_sq():
    rng = np.random.default_rng(7)
    eps = np.finfo(np.float64).eps
    for n, p, K in [(50, 1, 3), (200, 5, 12), (31, 3, 31)]:
        x = rng.standard_normal((n, p)) * 10.0
        xa = with_ones(x)
        centers = rng.standard_normal((K, p))
        # within rounding of ||c||^2 - 2 x.c: a (p+1)-term dot product errs by
        # at most (p+1) eps times the sum of its terms' magnitudes, and the
        # expression compared against by as much again
        c_sq = (centers**2).sum(axis=1)
        want = c_sq[None, :] - 2.0 * (x @ centers.T)
        bound = 2 * (p + 1) * eps * (2.0 * np.abs(x) @ np.abs(centers.T) + c_sq[None, :])
        got = _scores(xa, centers)
        assert got.shape == (n, K)
        assert (np.abs(got - want) <= bound).all()
        # stacked centres give each run's block, bit for bit
        stacked = _scores(xa, np.stack([3.0 * centers, centers]))
        assert stacked[1].tobytes() == got.tobytes()
        assert stacked[0].tobytes() == _scores(xa, 3.0 * centers).tobytes()
        # through `out=`: the leading slice of a larger, stale block
        block = np.full((3, n, K), np.nan)
        out = _scores(xa, np.stack([3.0 * centers, centers]), out=block[:2])
        assert out.base is block
        assert block[:2].tobytes() == stacked.tobytes()


def clipped_sq_distances(x, centers):
    """Squared distances in the expanded-norm form, clipped at 0: what Lloyd
    assigned by before its score kernel, as `lloyd_reference` still does."""
    d2 = (x**2).sum(axis=1)[:, None] - 2.0 * (x @ centers.T) + (centers**2).sum(axis=1)
    return np.maximum(d2, 0.0)


@pytest.mark.filterwarnings("error")
def test_scores_pick_the_nearest_centre_at_bench_shapes():
    # blob-like data; seeding centres (rows of x), then the means of the
    # clusters they make
    rng = np.random.default_rng(11)
    shapes = [(400, 2, 2), (400, 2, 17), (1196, 5, 34), (1196, 3, 54), (3015, 2, 54), (3015, 5, 8)]
    for n, p, K in shapes:
        x = rng.normal(size=(n, p)) + rng.uniform(-10, 10, size=(8, p))[rng.integers(0, 8, size=n)]
        seeds = x[rng.choice(n, size=K, replace=False)]
        nearest = clipped_sq_distances(x, seeds).argmin(axis=1)
        means = np.array([x[nearest == k].mean(axis=0) for k in range(K)])
        for centers in (seeds, means):
            want = clipped_sq_distances(x, centers).argmin(axis=1)
            assert (_scores(with_ones(x), centers).argmin(axis=1) == want).all()


def test_krzanowski_formula_example():
    trace, cand = krzanowski_from_traces([100.0, 20, 18, 17], p=2)
    assert trace.k_values.tolist() == [1, 2, 3, 4]
    assert np.allclose(trace.diffs, [60.0, -14.0, -14.0])
    assert np.allclose(trace.ratios, [60 / 14, 1.0])
    assert cand == [2, 3]


def test_krzanowski_exact_cancellation():
    traces = [12.0 / k for k in range(1, 6)]
    trace, cand = krzanowski_from_traces(traces, p=2)
    assert np.allclose(trace.diffs, 0.0)
    assert cand == []


def test_krzanowski_tie_breaks_to_smaller_k():
    # two equal ratios: K=2 and K=3 both at C=2
    trace, cand = krzanowski_from_traces([40.0, 11.0, 4.0, 1.75, 0.9], p=2)
    r = dict(zip(trace.ratio_k.tolist(), trace.ratios.tolist()))
    assert cand[0] == min(k for k, v in r.items() if v == max(r.values()))


def test_krzanowski_on_three_blobs():
    rng = np.random.default_rng(8)
    centers = np.repeat([[0, 0], [12, 0], [0, 12]], 60, axis=0)
    data = DataMatrix(centers + rng.normal(size=(180, 2)))
    trace, ranked, _ = krzanowski_candidates(data, 9, seed=9)
    assert 3 in ranked[:3]
    # independently recomputed traces match the stored ones
    for k, stored in zip(trace.k_values, trace.traces):
        if k == 3:
            res = best_of(data, 3, starts=10, seed=None or 0)
            assert stored <= res.wgss * 1.05 + 1e-9
    assert (trace.traces >= 0).all()


def test_k_sweep_at_kmax_2_ranks_no_k():
    # K=1 and K=2 give one Diff and so no ratio
    data = DataMatrix(np.random.default_rng(0).normal(size=(8, 2)))
    trace, ranked, results = krzanowski_candidates(data, 2, seed=3)
    assert ranked == []
    assert trace.k_values.tolist() == [1, 2] and trace.diffs.size == 1 and trace.ratios.size == 0
    assert_same_run(results[2], best_of(data, 2, seed=spawn(3, 2)[1]))
    with pytest.raises(ValueError, match="kmax=1"):
        krzanowski_candidates(data, 1)


def lloyd_reference(data, K, seed, max_iter=MAX_SWEEPS):
    """One K-means run alone, sweep by sweep: the single-start loop that
    `lloyd` ran once per seed before its runs advanced in lockstep."""
    x = data.values
    n, p = data.n, data.p
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
        d2 = x @ centers.T
        np.multiply(2.0, d2, out=d2)
        np.subtract(x_sq[:, None], d2, out=d2)
        np.add(d2, (centers**2).sum(axis=1), out=d2)
        np.maximum(d2, 0.0, out=d2)
        new_labels = d2.argmin(axis=1)

        counts = np.bincount(new_labels, minlength=K)
        empty = np.flatnonzero(counts == 0)
        if empty.size:
            own_d2 = d2[np.arange(n), new_labels]
            for k in empty:
                donor = counts[new_labels] >= 2
                far = int(np.argmax(np.where(donor, own_d2, -1.0)))
                counts[new_labels[far]] -= 1
                counts[k] += 1
                new_labels[far] = k

        changed = not np.array_equal(new_labels, labels)
        labels = new_labels
        sums = np.bincount(
            (labels[:, None] * p + np.arange(p)).ravel(), weights=x.ravel(), minlength=K * p
        ).reshape(K, p)
        centers = sums / counts[:, None]
        if not changed:
            break
    wgss = float(((x - centers[labels]) ** 2).sum())
    return KMeansResult(Partition(labels + 1), centers, wgss, sweeps)


def best_reference(data, K, seeds, max_iter=MAX_SWEEPS):
    """The first run of lowest WGSS, in seed order."""
    best = None
    for seed in seeds:
        result = lloyd_reference(data, K, seed, max_iter)
        if best is None or result.wgss < best.wgss:
            best = result
    return best


def assert_same_run(got, want):
    assert got.partition.labels.tobytes() == want.partition.labels.tobytes()
    assert got.centers.tobytes() == want.centers.tobytes()
    assert got.wgss == want.wgss
    assert got.iterations == want.iterations


def duplicate_heavy(p, seed, n=40, distinct=12):
    """n rows drawn from `distinct` rows on a 0.1 grid; about half of the
    zero entries are -0.0, which counts as the same row as 0.0."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([1.0, 5.0], size=(distinct, 1))
    base = np.round(rng.standard_normal((distinct, p)) * scale, 1)
    base[rng.random(base.shape) < 0.2] = 0.0
    x = base[rng.integers(0, distinct, size=n)]
    x[(x == 0.0) & (rng.random(x.shape) < 0.5)] = -0.0
    return DataMatrix(x)


# warnings are errors: a run left unrepaired divides 0/0 and may still lose
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("p", range(1, 8))
def test_lockstep_runs_match_one_run_loop(p):
    data = duplicate_heavy(p, seed=p)
    top = data.n_distinct
    for K in range(1, top + 1):
        assert_same_run(best_of(data, K, starts=10, seed=K), best_reference(data, K, spawn(K, 10)))
        assert_same_run(lloyd(data, K, seed=K), lloyd_reference(data, K, K))
    for K in sorted({2, (top + 1) // 2, top}):
        for starts in (1, 78):
            want = best_reference(data, K, spawn(100 + K, starts))
            assert_same_run(best_of(data, K, starts=starts, seed=100 + K), want)


@pytest.mark.filterwarnings("error")
def test_small_groups_match_one_run_loop(monkeypatch):
    # groups of 3 runs: several groups per call, with runs retiring at
    # different sweeps, repairs in mid-group and a sweep cap. Seeds 55 and
    # 131 share a group and both repair at sweep 2; 1856 repairs too.
    repairs = []
    repair = kmeans._repair_empty
    monkeypatch.setattr(kmeans, "_repair_empty", lambda *args: repairs.append(repair(*args)))
    x, K = draw_1856()
    repair_case = DataMatrix(x)
    monkeypatch.setattr(kmeans, "BUDGET", 3 * repair_case.n * K)
    seeds = [55, 131] + list(range(1850, 1860))
    assert_same_run(lloyd(repair_case, K, seed=seeds), best_reference(repair_case, K, seeds))
    assert len(repairs) >= 3

    for p in (1, 3, 6):
        data = duplicate_heavy(p, seed=20 + p, n=60)
        for K in (2, 5, data.n_distinct):
            monkeypatch.setattr(kmeans, "BUDGET", 3 * data.n * K)
            for max_iter in (2, MAX_SWEEPS):
                got = lloyd(data, K, seed=spawn(p * K, 78), max_iter=max_iter)
                assert_same_run(got, best_reference(data, K, spawn(p * K, 78), max_iter))


@st.composite
def lockstep_cases(draw):
    """Duplicate-heavy data with signed zeros, a K up to its distinct rows,
    a seed list, a group size from one run to all of them, and a cap."""
    p = draw(st.integers(1, 7))
    n = draw(st.integers(4, 60))
    data = duplicate_heavy(p, draw(st.integers(0, 2**16)), n=n, distinct=draw(st.integers(2, 15)))
    K = draw(st.integers(1, data.n_distinct))
    seeds = spawn(draw(st.integers(0, 2**16)), draw(st.integers(1, 24)))
    group = draw(st.integers(1, len(seeds)))
    max_iter = draw(st.sampled_from([2, MAX_SWEEPS]))
    return data, K, seeds, group, max_iter


# warnings fail the fits inside the test body: a `filterwarnings("error")`
# mark would also cover hypothesis's failure report, whose imports warn, and
# a failing example would then stop the whole session
@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=lockstep_cases())
def test_seed_list_lloyd_matches_one_run_loop(case):
    data, K, seeds, group, max_iter = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kmeans, "BUDGET", group * data.n * K)
            got = lloyd(data, K, seed=seeds, max_iter=max_iter)
        want = best_reference(data, K, seeds, max_iter)
    assert_same_run(got, want)


def three_blobs(seed=8):
    rng = np.random.default_rng(seed)
    return DataMatrix(np.repeat([[0, 0], [6, 0], [0, 6]], 20, axis=0) + rng.normal(size=(60, 2)))


def test_seed_list_semantics():
    data = three_blobs()
    for s in range(5):
        assert_same_run(lloyd(data, 4, seed=[s]), lloyd(data, 4, seed=s))

    # two seeds that reach the same partition in different sweep counts:
    # the tie goes to the first seed, whose sweep count is reported
    runs = [lloyd(data, 3, seed=s) for s in range(40)]
    a, b = next(
        (i, j)
        for i in range(40)
        for j in range(40)
        if runs[i].wgss == runs[j].wgss and runs[i].iterations < runs[j].iterations
    )
    assert_same_run(lloyd(data, 3, seed=[a, b]), runs[a])
    assert_same_run(lloyd(data, 3, seed=[b, a]), runs[b])

    with pytest.raises(ValueError, match="empty"):
        lloyd(data, 3, seed=[])
    with pytest.raises(ValueError, match="max_iter"):
        lloyd(data, 3, seed=[1, 2], max_iter=0)

    one = lloyd(data, 1, seed=[3, 4, 5])
    assert one.centers.tobytes() == data.values.mean(axis=0, keepdims=True).tobytes()
    assert one.wgss == float(((data.values - data.values.mean(axis=0)) ** 2).sum())
    assert one.iterations == 0 and one.partition.labels.tolist() == [1] * data.n


def test_best_of_working_set_stays_within_budget():
    # a blobs-dup shape: 8 blobs of 112 rows in p=5 plus 300 duplicate rows
    rng = np.random.default_rng(0)
    blobs = np.repeat(rng.uniform(-10, 10, size=(8, 5)), 112, axis=0) + rng.normal(size=(896, 5))
    data = DataMatrix(np.vstack([blobs, blobs[rng.integers(0, 896, size=300)]]))
    assert data.n_distinct >= 34  # computed once, outside the traced calls
    one_run = traced_peak(lambda: lloyd(data, 34, seed=0))
    all_starts = traced_peak(lambda: best_of(data, 34, starts=78, seed=0))
    # a few 256 KiB budgets; all 78 runs' distance blocks at once would
    # take about 25 MB
    assert all_starts <= one_run + 3 * 2**18
    # at K=2 all 10 starts share one group, whose 0.18 MiB distance block
    # is the only working set that grows with the group
    assert BUDGET // (data.n * 2) >= KMEANS_STARTS
    assert traced_peak(lambda: best_of(data, 2)) < 2**20


def test_best_of_calls_lloyd_once_through_its_module_binding(monkeypatch):
    # the benchmark's Lloyd span wraps `kmh.kmeans.lloyd` and binds these
    original = kmeans.lloyd
    signature = inspect.signature(original)
    calls = []

    def counting(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(bound.arguments)
        return original(*args, **kwargs)

    monkeypatch.setattr(kmeans, "lloyd", counting)
    data = three_blobs()
    result = best_of(data, 3, starts=10, seed=4)
    assert len(calls) == 1
    assert calls[0]["data"] is data and calls[0]["K"] == 3
    assert calls[0]["max_iter"] == MAX_SWEEPS
    assert result.iterations >= 1


def test_one_thread_sweeps_k_without_a_pool(monkeypatch):
    # each K's fit is independent, so labels match the pooled sweep's
    data = three_blobs()
    trace, candidates, results = krzanowski_candidates(data, 6, seed=3, threads=2)
    monkeypatch.setattr(kmeans, "ThreadPoolExecutor", None)
    serial = krzanowski_candidates(data, 6, seed=3, threads=1)
    assert serial[1] == candidates
    assert serial[0].traces.tobytes() == trace.traces.tobytes()
    for k, result in results.items():
        assert_same_run(serial[2][k], result)


def openblas_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS build that picks its kernel by CPU."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its configuration
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


K_SWEEP_DIGEST = """
import hashlib
from kmh.datagen import gen_bullseye
from kmh.kmeans import krzanowski_candidates
trace, _, results = krzanowski_candidates(gen_bullseye(seed=0).data, 20, seed=0)
digest = hashlib.sha256(trace.traces.tobytes())
for K in sorted(results):
    digest.update(results[K].partition.labels.tobytes())
    digest.update(results[K].centers.tobytes())
print(digest.hexdigest())
"""


def k_sweep_digest(coretype: str | None) -> str:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    src = str(Path(kmeans.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", K_SWEEP_DIGEST], env=env, capture_output=True, text=True, check=True
    )
    return run.stdout.strip()


@pytest.mark.skipif(not openblas_dynamic_arch(), reason="BLAS picks no kernel by CPU")
def test_k_sweep_bits_hold_under_another_gemm_kernel():
    # the WGSS traces, best labels and centres of bullseye's K sweep, under
    # the host's GEMM kernel and under OpenBLAS's oldest x86-64 one
    host = k_sweep_digest(None)
    assert len(host) == 64  # a SHA-256 hex digest
    assert k_sweep_digest("Prescott") == host
