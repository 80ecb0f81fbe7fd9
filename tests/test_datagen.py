"""Shape generators: sizes, labels, geometry, determinism."""

import numpy as np
import pytest

from kmh.datagen import gen_banana_spheres, gen_bullseye, gen_gaussian_blobs


def test_bullseye_sizes_and_labels():
    ds = gen_bullseye(n_core=100, n_ring=300, seed=0)
    assert ds.data.n == 400
    assert ds.truth.K == 2
    assert np.bincount(ds.truth.labels)[1:].tolist() == [100, 300]


def test_bullseye_ring_radii_concentrate():
    noise = 0.05
    ds = gen_bullseye(n_core=50, n_ring=500, noise_sd=noise, seed=1, ring_radius=5.0)
    ring = ds.data.values[ds.truth.labels == 2]
    radii = np.hypot(ring[:, 0], ring[:, 1])
    assert radii.std() < 3 * noise
    assert abs(radii.mean() - 5.0) < 0.05


def test_bullseye_centered():
    ds = gen_bullseye(n_core=200, n_ring=2000, seed=2)
    sd = ds.data.values.std(axis=0)
    assert np.all(np.abs(ds.data.values.mean(axis=0)) < 4 * sd / np.sqrt(ds.data.n))


def test_bullseye_deterministic():
    a = gen_bullseye(seed=7)
    b = gen_bullseye(seed=7)
    assert np.array_equal(a.data.values, b.data.values)
    assert not np.array_equal(a.data.values, gen_bullseye(seed=8).data.values)


def test_banana_spheres_default_total():
    ds = gen_banana_spheres(seed=0)
    assert ds.data.n == 3015
    assert ds.truth.K == 3


def test_banana_arcs_inside_ring():
    ds = gen_banana_spheres(n_banana=200, n_ring=400, n_outliers=0, seed=3)
    arcs = ds.data.values[ds.truth.labels <= 2]
    ring = ds.data.values[ds.truth.labels == 3]
    arc_r = np.hypot(arcs[:, 0], arcs[:, 1])
    ring_r = np.hypot(ring[:, 0], ring[:, 1])
    assert arc_r.max() < ring_r.min()


def test_banana_outlier_labels():
    ds = gen_banana_spheres(n_banana=50, n_ring=100, n_outliers=12, seed=4)
    assert ds.data.n == 212
    assert ds.truth.labels[-12:].tolist() == [1, 2, 3] * 4


def test_blobs_sizes_and_single_group():
    ds = gen_gaussian_blobs([[0.0, 0.0]], [50], sigma=1.0, seed=5)
    assert ds.truth.K == 1
    ds = gen_gaussian_blobs([[0, 0], [8, 0], [4, 7]], [50, 60, 70], seed=6)
    assert ds.data.n == 180
    assert np.bincount(ds.truth.labels)[1:].tolist() == [50, 60, 70]


def test_blobs_separation_classifies():
    centers = np.array([[0.0, 0.0], [10.0, 0.0]])
    ds = gen_gaussian_blobs(centers, [4000, 4000], sigma=1.0, seed=7)
    d = ((ds.data.values[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    nearest = d.argmin(axis=1) + 1
    assert (nearest == ds.truth.labels).mean() >= 0.999


def test_blobs_validation():
    with pytest.raises(ValueError):
        gen_gaussian_blobs([[0, 0], [1, 1]], [10], seed=0)
