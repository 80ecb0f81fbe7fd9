"""Co-association matrix, threshold-based group counting, and final selection."""

import numpy as np
import pytest

from kmh.core import Partition, adjusted_rand_index
from kmh.consensus import co_association, count_groups, estimate_kstar, mean_ari_scores


def parts(*label_lists):
    return [Partition.from_labels(np.asarray(l)) for l in label_lists]


def select_best(partitions):
    """The pipeline's selection rule: the largest mean ARI, first on ties."""
    return int(np.argmax(mean_ari_scores(partitions)[1]))


def psi_reference(partitions, indices):
    """Co-association by one broadcast compare per partition."""
    acc = np.zeros((indices.size, indices.size), dtype=np.int32)
    for part in partitions:
        sub = part.labels[indices]
        acc += sub[:, None] == sub[None, :]
    return acc / float(len(partitions))


def test_co_association_matches_broadcast_reference():
    # scatter label 0 present, K from 1 to 8, N from 1 to 30 (so most N
    # give inexact fractions): the GEMM form must agree to the last bit
    rng = np.random.default_rng(11)
    for _ in range(20):
        N = int(rng.integers(1, 31))
        ks = rng.integers(1, 9, size=N)
        ps = [Partition.from_labels(rng.integers(0, k + 1, size=50)) for k in ks]
        for indices in (np.arange(50), np.sort(rng.choice(50, size=23, replace=False))):
            psi = co_association(ps, indices)
            assert psi.dtype == np.float64
            assert np.array_equal(psi, psi_reference(ps, indices))


def all_rows(partitions):
    return co_association(partitions, np.arange(partitions[0].n))


def test_build_similarity_hand_count():
    psi = all_rows(parts([1, 1, 2], [1, 2, 2]))
    assert psi[0, 1] == 0.5
    assert psi[0, 2] == 0.0
    assert psi[1, 2] == 0.5
    assert np.allclose(np.diag(psi), 1.0)


def test_identical_partitions_give_block_psi():
    labels = [1, 1, 2, 2, 3]
    psi = all_rows(parts(labels, labels, labels))
    expected = (np.asarray(labels)[:, None] == np.asarray(labels)[None, :]).astype(float)
    assert np.array_equal(psi, expected)


def test_similarity_order_invariant_and_counts_integral():
    rng = np.random.default_rng(0)
    ps = parts(*[rng.integers(1, 4, size=12) for _ in range(5)])
    a = all_rows(ps)
    b = all_rows(ps[::-1])
    assert np.array_equal(a, b)
    assert np.array_equal(a, a.T)
    counts = a * len(ps)
    assert np.allclose(counts, np.round(counts))


def test_scatter_excluded_from_psi():
    # observations 1 and 2 are the only ones scatter in no partition
    ps = parts([0, 1, 1, 2], [1, 1, 2, 0])
    est = estimate_kstar(ps, B=3, subsample=2)
    assert est.per_replicate == [count_groups(co_association(ps, np.array([1, 2])))] * 3
    with pytest.raises(ValueError, match="2 core"):
        estimate_kstar(ps, B=1, subsample=3)


def test_estimate_two_blocks():
    labels = [1] * 5 + [2] * 5
    assert count_groups(all_rows(parts(labels, labels, labels))) == 2


def test_estimate_all_ones_gives_one():
    assert count_groups(np.ones((6, 6))) == 1


def test_blocks_fuse_above_threshold():
    # 3 blocks with inter-block psi 0.6 > 0.5: everything fuses
    psi = np.full((9, 9), 0.6)
    for b in range(3):
        psi[3 * b : 3 * b + 3, 3 * b : 3 * b + 3] = 1.0
    assert count_groups(psi) == 1


def test_blocks_separate_below_threshold():
    psi = np.full((9, 9), 0.3)
    for b in range(3):
        psi[3 * b : 3 * b + 3, 3 * b : 3 * b + 3] = 1.0
    assert count_groups(psi) == 3


def test_exact_k_recovery_for_pure_ensembles():
    rng = np.random.default_rng(1)
    for k in (2, 3, 5):
        labels = rng.integers(1, k + 1, size=40)
        labels[:k] = np.arange(1, k + 1)
        psi = all_rows(parts(*[labels] * 7))
        for threshold in (0.2, 0.5, 0.8):
            assert count_groups(psi, threshold=threshold) == k


def test_estimate_reorder_invariance_single_regime():
    # low-mean psi routes to single linkage, where the threshold cut counts
    # graph components and is reorder-invariant even with tied entries
    rng = np.random.default_rng(2)
    labels = [rng.integers(1, 4, size=15) for _ in range(4)]
    k1 = count_groups(all_rows(parts(*labels)))
    perm = rng.permutation(15)
    k2 = count_groups(all_rows(parts(*[l[perm] for l in labels])))
    assert k1 == k2


def test_estimate_reorder_invariance_complete_regime():
    # tie-free high-mean psi: complete linkage, still reorder-invariant
    rng = np.random.default_rng(8)
    m = 14
    base = rng.uniform(0.55, 1.0, size=(m, m))
    psi = (base + base.T) / 2
    np.fill_diagonal(psi, 1.0)
    k1 = count_groups(psi)
    perm = rng.permutation(m)
    assert count_groups(psi[np.ix_(perm, perm)]) == k1


def test_estimate_kstar_replicates():
    labels = [1] * 30 + [2] * 30
    ps = parts(labels, labels, labels)
    est = estimate_kstar(ps, B=9, subsample=20, seed=5)
    assert est.per_replicate == [2] * 9
    assert est.median_kstar == 2
    assert est.frequencies == {2: 1.0}


def test_estimate_kstar_single_full_replicate():
    labels = [1] * 10 + [2] * 10
    ps = parts(labels, labels)
    est = estimate_kstar(ps, B=1, subsample=20, seed=0)
    assert est.median_kstar == 2


def replicate_loop(partitions, B, subsample, seed):
    """estimate_kstar's per-replicate votes drawn one replicate at a time."""
    mask = np.logical_and.reduce([part.labels != 0 for part in partitions])
    core = np.flatnonzero(mask)
    rng = np.random.default_rng(seed)
    return [
        count_groups(co_association(partitions, np.sort(rng.choice(core, subsample, replace=False))))
        for _ in range(B)
    ]


@pytest.mark.parametrize("seed", range(4))
def test_estimate_kstar_whole_core_equals_replicate_loop(seed):
    # noisy 3-block ensemble with scatter rows, so replicates could disagree
    rng = np.random.default_rng(seed)
    truth = np.repeat([1, 2, 3], 15)
    labels = []
    for _ in range(6):
        noisy = np.where(rng.random(45) < 0.2, rng.integers(1, 4, size=45), truth)
        noisy[rng.choice(45, size=2, replace=False)] = 0
        labels.append(noisy)
    ps = [Partition.from_labels(l) for l in labels]
    core_size = int(np.logical_and.reduce([l != 0 for l in labels]).sum())
    for subsample in (core_size, core_size - 5):
        want = replicate_loop(ps, 7, subsample, seed)
        est = estimate_kstar(ps, B=7, subsample=subsample, seed=seed)
        assert est.per_replicate == want
        assert est.median_kstar == sorted(want)[3]
        values, counts = np.unique(want, return_counts=True)
        assert est.frequencies == {int(v): c / 7 for v, c in zip(values, counts)}


def test_lower_median_convention():
    labels = [1] * 40 + [2] * 40
    noisy = list(labels)
    noisy[0] = 2
    ps = parts(labels, noisy, labels)
    est = estimate_kstar(ps, B=4, subsample=30, seed=7)
    ordered = sorted(est.per_replicate)
    assert est.median_kstar == ordered[1]


def test_select_best_majority():
    p = [1, 1, 2, 2]
    q = [1, 2, 1, 2]
    assert select_best(parts(p, p, q)) == 0
    assert select_best(parts(q, p, p)) == 1


def test_select_best_tie_lowest_index():
    p = [1, 1, 2, 2]
    assert select_best(parts(p, p, p)) == 0
    # indices 1 and 4 hold the same partition and tie for the best mean
    p, q, x = [1, 1, 1, 2, 2, 2], [1, 1, 2, 2, 3, 3], [1, 2, 1, 2, 1, 2]
    assert select_best(parts(x, p, q, q, p)) == 1


def test_single_partition_scores_one():
    ari, mean = mean_ari_scores(parts([1, 1, 2]))
    assert np.array_equal(ari, [[1.0]])
    assert np.array_equal(mean, [1.0])
    assert select_best(parts([1, 1, 2])) == 0


def test_select_best_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(15):
        ps = parts(*[rng.integers(1, 4, size=10) for _ in range(5)])
        scores = []
        for i in range(len(ps)):
            scores.append(
                sum(adjusted_rand_index(ps[i], ps[j]) for j in range(len(ps))) / len(ps)
            )
        assert select_best(ps) == int(np.argmax(scores))


def test_select_best_relabel_invariance():
    rng = np.random.default_rng(4)
    ps = parts(*[rng.integers(1, 4, size=12) for _ in range(4)])
    relabeled = []
    for p in ps:
        perm = rng.permutation(p.K) + 1
        relabeled.append(Partition.from_labels(perm[p.labels - 1]))
    assert select_best(ps) == select_best(relabeled)


def test_argument_errors():
    with pytest.raises(ValueError, match="partition"):
        estimate_kstar([], B=1, subsample=2)
    labels = [1] * 5 + [2] * 5
    with pytest.raises(ValueError):
        estimate_kstar(parts(labels, labels), B=0, subsample=5)
    with pytest.raises(ValueError):
        estimate_kstar(parts(labels, labels), B=2, subsample=99)
