"""Adjusted Rand Index against a brute-force pair-counting oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmh.core import DataMatrix, Partition, adjusted_rand_index, contingency


def ari_pair_counting(labels1, labels2):
    """Independent oracle: classify every observation pair as together/apart
    in each partition and apply the chance-corrected index to the counts."""
    n = len(labels1)
    both = one_only = two_only = 0
    for i in range(n):
        for j in range(i + 1, n):
            s1 = labels1[i] == labels1[j]
            s2 = labels2[i] == labels2[j]
            both += s1 and s2
            one_only += s1 and not s2
            two_only += s2 and not s1
    together1 = both + one_only
    together2 = both + two_only
    total = n * (n - 1) / 2
    expected = together1 * together2 / total
    maximum = (together1 + together2) / 2
    if maximum == expected:
        return 1.0
    return (both - expected) / (maximum - expected)


def test_identical_up_to_permutation():
    p1 = Partition(np.array([1, 1, 2, 2]))
    p2 = Partition(np.array([2, 2, 1, 1]))
    assert adjusted_rand_index(p1, p2) == 1.0


def test_crossed_pairs_value():
    p1 = Partition(np.array([1, 1, 2, 2]))
    p2 = Partition(np.array([1, 2, 1, 2]))
    assert adjusted_rand_index(p1, p2) == pytest.approx(-0.5, abs=1e-12)


def test_singletons_vs_pairs_is_zero():
    p1 = Partition(np.array([1, 1, 2, 2]))
    p2 = Partition(np.array([1, 2, 3, 4]))
    assert adjusted_rand_index(p1, p2) == pytest.approx(0.0, abs=1e-12)


def test_symmetry_and_self():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(4, 12)
        p1 = Partition.from_labels(rng.integers(1, 4, size=n))
        p2 = Partition.from_labels(rng.integers(1, 4, size=n))
        assert adjusted_rand_index(p1, p2) == adjusted_rand_index(p2, p1)
        if p1.K >= 2:
            assert adjusted_rand_index(p1, p1) == 1.0


def test_relabeling_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(5, 10))
        # 0 is the scatter group: an ordinary group to ARI, never relabelled
        p1 = Partition.from_labels(rng.integers(0, 4, size=n))
        perm = np.concatenate([[0], rng.permutation(p1.K) + 1])
        p2 = Partition(perm[p1.labels])
        ref = Partition.from_labels(rng.integers(0, 4, size=n))
        assert adjusted_rand_index(p1, ref) == pytest.approx(
            adjusted_rand_index(p2, ref), abs=1e-14
        )


def test_oracle_equivalence_small_n():
    rng = np.random.default_rng(2)
    for _ in range(300):
        n = int(rng.integers(3, 9))
        # label 0, the scatter group, is drawn too
        l1 = rng.integers(0, int(rng.integers(2, 5)) + 1, size=n)
        l2 = rng.integers(0, int(rng.integers(2, 5)) + 1, size=n)
        p1, p2 = Partition.from_labels(l1), Partition.from_labels(l2)
        got = adjusted_rand_index(p1, p2)
        want = ari_pair_counting(p1.labels, p2.labels)
        assert got == pytest.approx(want, abs=1e-12)


def test_argument_errors():
    p1 = Partition(np.array([1, 1, 2]))
    p2 = Partition(np.array([1, 2]))
    with pytest.raises(ValueError):
        adjusted_rand_index(p1, p2)
    with pytest.raises(ValueError):
        contingency(p1, p2)
    single = Partition(np.array([1]))
    with pytest.raises(ValueError):
        adjusted_rand_index(single, single)


def test_contingency_examples():
    t = contingency(Partition(np.array([1, 1, 2])), Partition(np.array([1, 2, 2])))
    assert t.tolist() == [[1, 1], [0, 1]]
    t = contingency(Partition(np.array([1, 1])), Partition(np.array([1, 1])))
    assert t.tolist() == [[2]]
    t = contingency(Partition(np.array([1, 2])), Partition(np.array([2, 1])))
    assert t.tolist() == [[0, 1], [1, 0]]
    assert not t.flags.writeable


def test_datamatrix_validation():
    with pytest.raises(ValueError):
        DataMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        DataMatrix(np.array([[1.0, 2.0]]))  # n < 2
    dm = DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert (dm.n, dm.p) == (2, 2)
    with pytest.raises(ValueError):
        dm.values[0, 0] = 9.0  # immutable


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(np.array([1, 3]))  # id 2 missing
    with pytest.raises(ValueError):
        Partition(np.array([-1, 1]))
    p = Partition.from_labels(np.array([5, 5, 9, 0]))
    assert p.labels.tolist() == [1, 1, 2, 0]
    assert p.K == 2
    with pytest.raises(ValueError):
        Partition.from_labels(np.array([-1, 2]))


def contingency_add_at(l1, l2) -> np.ndarray:
    """Reference: scatter-add one count per observation into the table."""
    rows, r_idx = np.unique(l1, return_inverse=True)
    cols, c_idx = np.unique(l2, return_inverse=True)
    counts = np.zeros((rows.size, cols.size), dtype=np.int64)
    np.add.at(counts, (r_idx, c_idx), 1)
    return counts


def from_labels_loop(labels) -> np.ndarray:
    """Reference: renumber positive ids 1..K one label at a time."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros_like(labels)
    for new_id, old_id in enumerate(np.unique(labels[labels > 0]), start=1):
        out[labels == old_id] = new_id
    return out


def ari_from_counts(counts: np.ndarray, n: int) -> float:
    """Reference: the float pair-count formula over a given table."""
    def pairs(m):
        m = np.asarray(m, dtype=float)
        return m * (m - 1.0) / 2.0

    sum_rows, sum_cols = pairs(counts.sum(axis=1)).sum(), pairs(counts.sum(axis=0)).sum()
    expected = sum_rows * sum_cols / (n * (n - 1.0) / 2.0)
    maximum = 0.5 * (sum_rows + sum_cols)
    if maximum == expected:
        return 1.0
    return float((pairs(counts).sum() - expected) / (maximum - expected))


def test_rewrites_equal_their_references():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 301))
        # ids drawn from a sparse range, so some are absent; 0 is scatter
        raw1 = rng.integers(0, int(rng.integers(1, 12)), size=n) * 3
        raw2 = rng.integers(0, int(rng.integers(1, 12)), size=n)
        p1, p2 = Partition.from_labels(raw1), Partition.from_labels(raw2)
        assert np.array_equal(p1.labels, from_labels_loop(raw1))
        assert np.array_equal(p2.labels, from_labels_loop(raw2))
        reference = contingency_add_at(p1.labels, p2.labels)
        counts = contingency(p1, p2)
        assert counts.dtype == reference.dtype and np.array_equal(counts, reference)
        assert adjusted_rand_index(p1, p2) == ari_from_counts(reference, n)


@st.composite
def label_pairs(draw):
    """Two label vectors of one length, ids drawn from a small range that
    includes the scatter id 0, so some ids are absent."""
    n = draw(st.integers(1, 60))
    ids = st.integers(0, draw(st.integers(0, 8)))
    return draw(st.lists(ids, min_size=n, max_size=n)), draw(st.lists(ids, min_size=n, max_size=n))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(labels=label_pairs())
def test_contingency_matches_add_at_reference(labels):
    p1, p2 = (Partition.from_labels(np.array(raw)) for raw in labels)
    counts = contingency(p1, p2)
    reference = contingency_add_at(p1.labels, p2.labels)
    assert counts.dtype == reference.dtype and np.array_equal(counts, reference)
