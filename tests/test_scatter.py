"""Tiny-cluster removal behavior and determinism."""

import numpy as np
import pytest

import kmh.scatter
from kmh.core import DataMatrix
from kmh.scatter import default_scatter_starts, remove_scatter


def test_threshold_below_one_removes_nothing():
    rng = np.random.default_rng(0)
    data = DataMatrix(rng.normal(size=(400, 2)))
    res = remove_scatter(data, G=10, frac=0.001, seed=1)
    # 0.1% of 400 = 0.4 < 1, so every nonempty cluster survives
    assert res.scatter_indices.size == 0
    assert res.n_star == 400


def test_no_gmeans_run_when_nothing_can_go(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("best_of called")

    monkeypatch.setattr(kmh.scatter, "best_of", refuse)
    data = DataMatrix(np.random.default_rng(0).normal(size=(400, 2)))
    for frac in (0.0, 0.001, 1 / 400):
        res = remove_scatter(data, G=10, frac=frac, seed=1)
        assert np.array_equal(res.core_indices, np.arange(400))
        assert res.scatter_indices.size == 0
    with pytest.raises(AssertionError, match="best_of called"):
        remove_scatter(data, G=10, frac=0.003, seed=1)


def test_singletons_removed_at_n2000_threshold():
    rng = np.random.default_rng(1)
    body = rng.normal(size=(1997, 2))
    isolated = np.array([[60.0, 60.0], [-55.0, 40.0], [70.0, -65.0]])
    data = DataMatrix(np.vstack([body, isolated]))
    res = remove_scatter(data, G=25, frac=0.001, seed=2)
    # isolated points end up in singleton clusters of size 1 < 2.0
    assert {1997, 1998, 1999} <= set(res.scatter_indices.tolist())


def test_partition_of_indices():
    rng = np.random.default_rng(2)
    data = DataMatrix(rng.normal(size=(100, 2)))
    res = remove_scatter(data, G=5, frac=0.05, seed=3)
    merged = np.sort(np.concatenate([res.core_indices, res.scatter_indices]))
    assert np.array_equal(merged, np.arange(100))
    assert res.n_star == res.core_indices.size


def test_deterministic():
    rng = np.random.default_rng(3)
    data = DataMatrix(rng.normal(size=(300, 3)))
    a = remove_scatter(data, G=8, frac=0.01, seed=9)
    b = remove_scatter(data, G=8, frac=0.01, seed=9)
    assert np.array_equal(a.core_indices, b.core_indices)


def test_retained_floor():
    rng = np.random.default_rng(4)
    data = DataMatrix(rng.normal(size=(500, 2)))
    G, frac = 15, 0.01
    res = remove_scatter(data, G=G, frac=frac, seed=4)
    assert res.n_star >= 500 * (1 - G * frac)


def test_bad_arguments():
    data = DataMatrix(np.random.default_rng(5).normal(size=(20, 2)))
    with pytest.raises(ValueError, match="G=1 out of range"):
        remove_scatter(data, G=1, frac=0.001)
    with pytest.raises(ValueError, match="G=30 out of range"):
        remove_scatter(data, G=30, frac=0.001)
    with pytest.raises(ValueError):
        remove_scatter(data, G=3, frac=1.0)
    # more groups than distinct rows is rejected even where no G-means runs
    three_rows = DataMatrix(np.repeat(np.eye(3), 5, axis=0))
    with pytest.raises(ValueError, match="3 distinct rows"):
        remove_scatter(three_rows, G=4, frac=0.001)


def test_default_starts_capped():
    assert default_scatter_starts(3015, 2) == 78
    assert default_scatter_starts(10**6, 10) == 100
