"""Co-association matrix, threshold-based group counting, and final selection."""

import numpy as np
import pytest
from helpers import co_association, expand, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from kmh import consensus
from kmh.core import Partition, adjusted_rand_index
from kmh.consensus import (
    DEFAULT_CV_CUT,
    DEFAULT_MEAN_CUT,
    DEFAULT_THRESHOLD,
    co_association_table,
    estimate_kstar,
    label_signatures,
    mean_ari_scores,
)


def count_groups(psi, threshold=DEFAULT_THRESHOLD, mean_cut=DEFAULT_MEAN_CUT, cv_cut=DEFAULT_CV_CUT):
    """Oracle for one consensus vote: the cluster count left after cutting
    scipy's dendrogram of 1-psi at 1-threshold, single linkage when the
    off-diagonal mean is below mean_cut or its coefficient of variation
    above cv_cut, complete otherwise."""
    off = squareform(psi, checks=False)
    mean = float(off.mean())
    cv = np.inf if mean == 0 else float(off.std() / mean)
    method = "single" if (mean < mean_cut or cv > cv_cut) else "complete"
    tree = linkage(1.0 - off, method=method)
    return int(fcluster(tree, t=1.0 - threshold, criterion="distance").max())


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


@st.composite
def signature_ensembles(draw):
    """N partitions of n rows, each row copied from one of a few label
    signatures with a little noise, scatter label 0 in places, and m of the
    rows (2 to about 200) picked in sorted order."""
    N = draw(st.integers(1, 12))
    n = draw(st.integers(2, 220))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 6))
    pool = rng.integers(0, k + 1, size=(draw(st.integers(1, 30)), N))
    rows = pool[rng.integers(0, len(pool), size=n)]
    noise = rng.random((n, N)) < draw(st.sampled_from([0.0, 0.02, 0.3]))
    rows = np.where(noise, rng.integers(0, k + 1, size=(n, N)), rows)
    ps = [Partition.from_labels(col) for col in rows.T]
    m = draw(st.integers(2, n))
    return ps, np.sort(rng.choice(n, size=m, replace=False))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ensemble=signature_ensembles())
def test_table_expands_to_dense_co_association(ensemble):
    ps, indices = ensemble
    sim = co_association_table(ps, indices)
    signatures, sig = label_signatures(ps, indices)
    assert np.array_equal(sim.sig, sig) and sim.share.shape == (len(signatures),) * 2
    assert np.array_equal(sim.indices, indices)
    # one row per distinct signature, and each row's signature is its labels
    labels = np.stack([part.labels[indices] for part in ps], axis=1)
    assert np.array_equal(signatures[sig], labels)
    assert len(np.unique(signatures, axis=0)) == len(signatures)
    want = co_association(ps, indices)
    assert np.array_equal(expand(sim).view(np.int64), want.view(np.int64))


def test_report_table_stays_small_for_few_signatures():
    # 3000 rows drawn from 10 signatures over 6 partitions: the dense psi
    # would take 72 MB (float64) plus 36 MB (float32 product)
    rng = np.random.default_rng(0)
    pool = rng.integers(0, 5, size=(10, 6))
    rows = pool[rng.integers(0, 10, size=3000)]
    ps = [Partition.from_labels(col) for col in rows.T]
    indices = np.arange(3000)
    tables = []
    assert traced_peak(lambda: tables.append(co_association_table(ps, indices))) < 2**20
    assert tables[0].share.shape[0] <= 10


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


def whole_core_vote(partitions, **cutoffs):
    """estimate_kstar's one vote when the subsample is every row."""
    est = estimate_kstar(partitions, B=1, subsample=partitions[0].n, **cutoffs)
    return est.per_replicate[0]


def test_estimate_two_blocks():
    labels = [1] * 5 + [2] * 5
    ps = parts(labels, labels, labels)
    assert count_groups(all_rows(ps)) == 2
    assert whole_core_vote(ps) == 2


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
        ps = parts(*[labels] * 7)
        psi = all_rows(ps)
        for threshold in (0.2, 0.5, 0.8):
            assert count_groups(psi, threshold=threshold) == k
        assert whole_core_vote(ps) == k


def test_estimate_reorder_invariance_single_regime():
    # low-mean psi routes to single linkage, where the threshold cut counts
    # graph components and is reorder-invariant even with tied entries
    rng = np.random.default_rng(2)
    labels = [rng.integers(1, 4, size=15) for _ in range(4)]
    ps = parts(*labels)
    k1 = count_groups(all_rows(ps))
    perm = rng.permutation(15)
    permuted = parts(*[l[perm] for l in labels])
    k2 = count_groups(all_rows(permuted))
    assert k1 == k2
    assert whole_core_vote(ps) == whole_core_vote(permuted) == k1


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


def replicate_loop(partitions, B, subsample, seed, **cutoffs):
    """estimate_kstar's per-replicate votes, each from its own psi and scipy
    linkage."""
    mask = np.logical_and.reduce([part.labels != 0 for part in partitions])
    core = np.flatnonzero(mask)
    rng = np.random.default_rng(seed)
    return [
        count_groups(
            psi_reference(partitions, np.sort(rng.choice(core, subsample, replace=False))),
            **cutoffs,
        )
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


def test_vote_tables_bounded_by_subsample(monkeypatch):
    # 300 core rows with about as many distinct signatures: each replicate
    # tabulates only the signatures it drew, never the whole core set
    rng = np.random.default_rng(5)
    ps = parts(*[rng.integers(1, 9, size=300) for _ in range(4)])
    rows = []
    real = consensus._co_counts
    monkeypatch.setattr(
        consensus, "_co_counts", lambda p, labels: (rows.append(len(labels)), real(p, labels))[1]
    )
    est = estimate_kstar(ps, B=6, subsample=20, seed=3)
    assert len(rows) == 6 and max(rows) <= 20
    assert est.per_replicate == replicate_loop(ps, 6, 20, 3)


CUTOFFS = [DEFAULT_MEAN_CUT, DEFAULT_CV_CUT, 0.0, 0.3, 1.0, -0.5, np.inf, -np.inf]


@st.composite
def tie_heavy_ensembles(draw):
    """Few labels, rows copied from a handful of signatures, a little label
    noise, scatter rows, and N from 1 to 30 so that k/N is mostly inexact."""
    N = draw(st.integers(1, 30))
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 3))
    pool = rng.integers(1, k + 1, size=(draw(st.integers(1, 6)), N))
    rows = pool[rng.integers(0, len(pool), size=n)]
    noise = rng.random((n, N)) < draw(st.sampled_from([0.0, 0.05, 0.2]))
    rows = np.where(noise, rng.integers(1, k + 1, size=(n, N)), rows)
    # rows 0 and 1 stay in the core, so it always holds two rows
    scatter = np.flatnonzero(rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.4])))
    rows[scatter[scatter >= 2], rng.integers(0, N, size=scatter.size)[scatter >= 2]] = 0
    ps = [Partition.from_labels(col) for col in rows.T]
    core_size = int((rows != 0).all(axis=1).sum())
    return ps, draw(st.integers(2, core_size))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    ensemble=tie_heavy_ensembles(),
    B=st.integers(1, 4),
    seed=st.integers(0, 1000),
    mean_cut=st.sampled_from(CUTOFFS),
    cv_cut=st.sampled_from(CUTOFFS),
)
def test_signature_votes_match_replicate_loop(ensemble, B, seed, mean_cut, cv_cut):
    ps, subsample = ensemble
    est = estimate_kstar(ps, B=B, subsample=subsample, seed=seed, mean_cut=mean_cut, cv_cut=cv_cut)
    want = replicate_loop(ps, B, subsample, seed, mean_cut=mean_cut, cv_cut=cv_cut)
    assert est.per_replicate == want


# four rows whose off-diagonal psi is (.5, .5, 1, 0, .5, .5): mean exactly
# 0.5 and cv = 1/sqrt(3); single linkage chains them into 1 group, complete
# linkage leaves 2
AT_HALF = parts([1, 1, 2, 1], [1, 2, 1, 1])


@pytest.mark.parametrize(
    "mean_cut, cv_cut, groups",
    [
        (0.5, DEFAULT_CV_CUT, 2),  # mean == mean_cut is not below it: complete
        (np.nextafter(0.5, 1.0), DEFAULT_CV_CUT, 1),
        (np.inf, np.inf, 1),
        (-np.inf, np.inf, 2),
        (-np.inf, -np.inf, 1),
        (-np.inf, -0.5, 1),
        (-0.5, 0.5, 1),  # cv 0.577 > 0.5
        (-0.5, 0.6, 2),
    ],
)
def test_cutoff_edges(mean_cut, cv_cut, groups):
    cutoffs = dict(mean_cut=mean_cut, cv_cut=cv_cut)
    assert count_groups(all_rows(AT_HALF), **cutoffs) == groups
    for subsample in (3, 4):
        est = estimate_kstar(AT_HALF, B=5, subsample=subsample, seed=1, **cutoffs)
        assert est.per_replicate == replicate_loop(AT_HALF, 5, subsample, 1, **cutoffs)
    assert estimate_kstar(AT_HALF, B=1, subsample=4, **cutoffs).per_replicate == [groups]


@pytest.mark.parametrize("mean_cut, cv_cut", [(0.0, np.inf), (-np.inf, np.inf), (0.5, 0.8), (0.0, -1.0)])
def test_zero_mean_psi(mean_cut, cv_cut):
    # no two rows ever share a cluster: the mean is 0 and the cv is inf, so
    # only cv_cut=inf with mean_cut <= 0 keeps complete linkage
    ps = parts([1, 2, 3, 4, 5], [5, 4, 3, 2, 1], [1, 2, 3, 4, 5])
    est = estimate_kstar(ps, B=3, subsample=4, seed=2, mean_cut=mean_cut, cv_cut=cv_cut)
    assert est.per_replicate == [4, 4, 4]
    assert est.per_replicate == replicate_loop(ps, 3, 4, 2, mean_cut=mean_cut, cv_cut=cv_cut)


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
    for subsample in (1, 0, -3):
        with pytest.raises(ValueError, match=f"subsample={subsample} must be >= 2"):
            estimate_kstar(parts(labels, labels), B=2, subsample=subsample)
