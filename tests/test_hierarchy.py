"""Single-linkage agglomeration against a brute-force reference, plus
change-point ranking and tree cutting."""

import numpy as np
import pytest

from kmh.core import Partition
from kmh.hierarchy import change_points, cut_to_partition, single_linkage


def brute_force_single_linkage(dist):
    """Reference: recompute min cross-cluster distance from the ORIGINAL
    matrix at every step (no update rule), same tie-breaking key. Merges
    are (a, b, height) with a < b the smallest entities of the two groups."""
    K = dist.shape[0]
    clusters = [frozenset([i]) for i in range(K)]
    merges = []
    while len(clusters) > 1:
        best = None
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                d = min(dist[i, j] for i in clusters[a] for j in clusters[b])
                key = (d, tuple(sorted((min(clusters[a]), min(clusters[b])))))
                if best is None or key < best[0]:
                    best = (key, a, b)
        (d, pair), a, b = best
        merges.append((*pair, d))
        clusters[a] = clusters[a] | clusters[b]
        del clusters[b]
    return merges


def random_distance_matrix(rng, k):
    d = rng.uniform(0.05, 1.0, size=(k, k))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    return d


def integer_distance_matrix(rng, k):
    """Distances in {1, 2, 3}: most pairs tie with others."""
    d = np.triu(rng.integers(1, 4, size=(k, k)), 1).astype(float)
    return d + d.T


def saturated_distance_matrix(rng, k):
    """About half the distances saturated at 1.0, as far-apart entities give."""
    return np.minimum(random_distance_matrix(rng, k) * 2.0, 1.0)


def test_three_entity_hand_trace():
    d = np.array([[0.0, 0.1, 0.4], [0.1, 0.0, 0.3], [0.4, 0.3, 0.0]])
    trace, labels = single_linkage(d, stop_at=1)
    assert trace.merges == ((0, 1, 0.1), (0, 2, 0.3))
    assert labels.tolist() == [1, 1, 1]


def test_two_entities():
    d = np.array([[0.0, 0.7], [0.7, 0.0]])
    trace, _ = single_linkage(d)
    assert len(trace.merges) == 1 and trace.merges[0][2] == 0.7


def test_stop_at_labels():
    d = np.array([[0.0, 0.1, 0.4], [0.1, 0.0, 0.3], [0.4, 0.3, 0.0]])
    trace, labels = single_linkage(d, stop_at=2)
    assert len(trace.merges) == 1
    assert labels.tolist() == [1, 1, 2]


def test_validation_errors():
    with pytest.raises(ValueError):
        single_linkage(np.array([[0.0, 1], [2, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        single_linkage(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    for inf in (np.inf, -np.inf):
        with pytest.raises(ValueError, match="inf"):
            single_linkage(np.array([[0.0, inf], [inf, 0.0]]))
    d = np.zeros((3, 3))
    with pytest.raises(ValueError):
        single_linkage(d, stop_at=5)


@pytest.mark.parametrize(
    "make_matrix",
    [random_distance_matrix, integer_distance_matrix, saturated_distance_matrix],
    ids=["uniform", "integer", "saturated"],
)
def test_matches_brute_force_on_random_matrices(make_matrix):
    rng = np.random.default_rng(10)
    for _ in range(60):
        k = int(rng.integers(3, 9))
        d = make_matrix(rng, k)
        trace, _ = single_linkage(d)
        ref = brute_force_single_linkage(d)
        assert trace.merges == tuple(ref)


def test_heights_nondecreasing():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = random_distance_matrix(rng, int(rng.integers(3, 12)))
        trace, _ = single_linkage(d)
        h = trace.heights
        assert (np.diff(h) >= 0).all()


def test_change_points_height_example():
    d = np.zeros((4, 4))
    trace, _ = single_linkage(random_distance_matrix(np.random.default_rng(0), 4))
    # synthesize a trace with controlled heights
    merges = [(m[0], m[1], h) for m, h in zip(trace.merges, [0.1, 0.15, 0.6])]
    fake = type(trace)(tuple(merges), 4)
    report = change_points(fake, L=2)
    assert np.allclose(report.cps, [0.05, 0.45])
    assert report.candidate_kstars[0] == 2

    merges = [(m[0], m[1], h) for m, h in zip(trace.merges, [0.1, 0.5, 0.55])]
    fake = type(trace)(tuple(merges), 4)
    assert change_points(fake, L=2).candidate_kstars == [3, 2]


def test_change_points_tie_prefers_larger_kstar():
    trace, _ = single_linkage(random_distance_matrix(np.random.default_rng(1), 5))
    merges = [(m[0], m[1], 0.3) for m in trace.merges]
    fake = type(trace)(tuple(merges), 5)
    report = change_points(fake, L=3)
    assert (report.cps == 0).all()
    assert report.candidate_kstars == [4, 3, 2]


def test_change_points_tiny_trace():
    d = np.array([[0.0, 0.7], [0.7, 0.0]])
    trace, _ = single_linkage(d)
    report = change_points(trace, L=1)
    assert report.cps.size == 0 and report.candidate_kstars == []


def test_cut_identity_at_k0():
    rng = np.random.default_rng(3)
    d = random_distance_matrix(rng, 5)
    trace, _ = single_linkage(d)
    entity_part = Partition(np.array([1, 1, 2, 3, 4, 5, 2]))
    cut = cut_to_partition(trace, 5, entity_part)
    same_in = entity_part.labels[:, None] == entity_part.labels[None, :]
    same_out = cut.labels[:, None] == cut.labels[None, :]
    assert np.array_equal(same_in, same_out)


def test_cut_small_example():
    d = np.array([[0.0, 0.1, 0.4], [0.1, 0.0, 0.3], [0.4, 0.3, 0.0]])
    trace, _ = single_linkage(d)
    entity_part = Partition(np.array([1, 2, 3, 3, 0]))
    cut = cut_to_partition(trace, 2, entity_part)
    assert cut.labels.tolist() == [1, 1, 2, 2, 0]


def test_cut_needs_enough_merges():
    d = np.array([[0.0, 0.1, 0.4], [0.1, 0.0, 0.3], [0.4, 0.3, 0.0]])
    trace, _ = single_linkage(d, stop_at=2)
    entity_part = Partition(np.array([1, 2, 3]))
    assert cut_to_partition(trace, 2, entity_part).labels.tolist() == [1, 1, 2]
    with pytest.raises(ValueError, match="kstar=1 needs 2 merges"):
        cut_to_partition(trace, 1, entity_part)


def test_cut_group_count_and_refinement():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = int(rng.integers(4, 11))
        d = random_distance_matrix(rng, k)
        trace, _ = single_linkage(d)
        obs_labels = rng.integers(1, k + 1, size=60)
        for missing in range(1, k + 1):  # ensure every entity has a member
            obs_labels[missing - 1] = missing
        entity_part = Partition(obs_labels)
        finer = None
        for kstar in range(k, 1, -1):
            cut = cut_to_partition(trace, kstar, entity_part)
            assert cut.K == kstar
            if finer is not None:
                # every finer group maps into exactly one coarser group
                for fine_id in range(1, finer.K + 1):
                    targets = np.unique(cut.labels[finer.labels == fine_id])
                    assert targets.size == 1
            finer = cut
