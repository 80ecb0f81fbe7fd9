"""Lloyd iterations, multi-start behavior, and the Diff-ratio criterion."""

import warnings

import numpy as np
import pytest

from kmh.core import DataMatrix
from kmh.kmeans import _init_macqueen, _sq_distances, best_of, krzanowski_candidates, krzanowski_from_traces, lloyd


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


def test_empty_cluster_repair_keeps_k():
    # far outlier forces a seed configuration that can empty a cluster
    pts = np.vstack([np.zeros((10, 2)), np.eye(2), [[100.0, 100.0]]])
    data = DataMatrix(pts + np.arange(13)[:, None] * 1e-6)
    for seed in range(10):
        res = lloyd(data, 4, seed=seed)
        assert res.partition.K == 4
        assert np.bincount(res.partition.labels, minlength=5)[1:].min() >= 1


def test_repair_never_takes_a_sole_member():
    # draw 1856 of this generator: the farthest point sits alone in its
    # cluster, and moving it used to empty that cluster (0/0 centre)
    rng = np.random.default_rng(0)
    for draw in range(1857):
        n, p = rng.integers(6, 40), rng.integers(1, 3)
        x = rng.standard_normal((n, p)) * rng.choice([1, 5, 50], size=(n, 1))
        K = int(rng.integers(3, min(n, 10) + 1))
    assert (n, p, K) == (24, 2, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = lloyd(DataMatrix(x), K, seed=1856)
    assert np.isfinite(res.centers).all()
    assert res.partition.K == K
    assert np.bincount(res.partition.labels, minlength=K + 1)[1:].min() >= 1


def test_sq_distances_match_broadcast_expression():
    rng = np.random.default_rng(7)
    for n, p, K in [(50, 1, 3), (200, 5, 12), (31, 3, 31)]:
        x = rng.standard_normal((n, p)) * 10.0
        centers = rng.standard_normal((K, p))
        x_sq = (x**2).sum(axis=1)
        want = x_sq[:, None] - 2.0 * (x @ centers.T) + (centers**2).sum(axis=1)[None, :]
        np.maximum(want, 0.0, out=want)
        assert _sq_distances(x, x_sq, centers).tobytes() == want.tobytes()


def test_krzanowski_formula_example():
    trace, cand = krzanowski_from_traces([1, 2, 3, 4], [100.0, 20, 18, 17], p=2, M=2)
    assert np.allclose(trace.diffs, [60.0, -14.0, -14.0])
    assert np.allclose(trace.ratios, [60 / 14, 1.0])
    assert cand == [2, 3]


def test_krzanowski_exact_cancellation():
    ks = [1, 2, 3, 4, 5]
    traces = [12.0 / k for k in ks]
    trace, cand = krzanowski_from_traces(ks, traces, p=2, M=3)
    assert np.allclose(trace.diffs, 0.0)
    assert cand == []


def test_krzanowski_tie_breaks_to_smaller_k():
    # two equal ratios: K=2 and K=3 both at C=2
    trace, cand = krzanowski_from_traces(
        [1, 2, 3, 4, 5], [40.0, 11.0, 4.0, 1.75, 0.9], p=2, M=1
    )
    r = dict(zip(trace.ratio_k.tolist(), trace.ratios.tolist()))
    assert cand[0] == min(k for k, v in r.items() if v == max(r.values()))


def test_krzanowski_on_three_blobs():
    rng = np.random.default_rng(8)
    centers = np.repeat([[0, 0], [12, 0], [0, 12]], 60, axis=0)
    data = DataMatrix(centers + rng.normal(size=(180, 2)))
    trace, cand, _ = krzanowski_candidates(data, range(2, 10), M=3, starts=10, seed=9)
    assert 3 in cand
    # independently recomputed traces match the stored ones
    for k, stored in zip(trace.k_values, trace.traces):
        if k == 3:
            res = best_of(data, 3, starts=10, seed=None or 0)
            assert stored <= res.wgss * 1.05 + 1e-9
    assert (trace.traces >= 0).all()
