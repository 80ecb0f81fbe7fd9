"""Seeded 2-d benchmark generators with ground-truth labels: a disc inside
an annulus, two banana arcs inside a ring, and plain Gaussian blobs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._rng import Seed, generator
from .core import DataMatrix, Partition


@dataclass(frozen=True)
class LabeledDataset:
    data: DataMatrix
    truth: Partition
    descriptor: str


def _ring_points(rng, n, radius, noise_sd, center=(0.0, 0.0), arc=(0.0, 2 * np.pi)):
    angles = rng.uniform(arc[0], arc[1], size=n)
    radii = radius + rng.normal(0.0, noise_sd, size=n)
    x = center[0] + radii * np.cos(angles)
    y = center[1] + radii * np.sin(angles)
    return np.column_stack([x, y])


def _uniform_outliers(rng, n, points):
    lo, hi = points.min(axis=0), points.max(axis=0)
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    return rng.uniform(mid - 1.5 * half, mid + 1.5 * half, size=(n, points.shape[1]))


def gen_bullseye(
    n_core: int = 60,
    n_ring: int = 340,
    noise_sd: float = 0.9,
    seed: Seed = 0,
    ring_radius: float = 6.0,
    core_sd: float = 0.25,
) -> LabeledDataset:
    """Isotropic Gaussian disc (group 1) inside a noisy annulus (group 2)."""
    if n_core < 10 or n_ring < 10:
        raise ValueError("component sizes must be >= 10")
    rng = generator(seed)
    core = rng.normal(0.0, core_sd, size=(n_core, 2))
    ring = _ring_points(rng, n_ring, ring_radius, noise_sd)
    data = DataMatrix(np.vstack([core, ring]))
    truth = Partition(np.repeat([1, 2], [n_core, n_ring]))
    desc = f"bullseye(n_core={n_core}, n_ring={n_ring}, noise_sd={noise_sd}, radius={ring_radius}, core_sd={core_sd})"
    return LabeledDataset(data, truth, desc)


def gen_banana_spheres(
    n_banana: int = 735,
    n_ring: int = 1500,
    n_outliers: int = 45,
    seed: Seed = 0,
    ring_radius: float = 6.0,
    arc_radius: float = 2.0,
    noise_sd: float = 0.35,
) -> LabeledDataset:
    """Two facing half-ring arcs (groups 1-2) inside a full ring (group 3),
    plus uniform outliers labelled 1, 2, 3, 1, ... in turn."""
    if n_banana < 10 or n_ring < 10:
        raise ValueError("component sizes must be >= 10")
    rng = generator(seed)
    # facing half-rings whose tips stay 2 radii short of touching
    arc1 = _ring_points(rng, n_banana, arc_radius, noise_sd, center=(-1.0, 0.0), arc=(0.0, np.pi))
    arc2 = _ring_points(rng, n_banana, arc_radius, noise_sd, center=(1.0, 0.0), arc=(np.pi, 2 * np.pi))
    ring = _ring_points(rng, n_ring, ring_radius, noise_sd)
    body = np.vstack([arc1, arc2, ring])
    labels = np.repeat([1, 2, 3], [n_banana, n_banana, n_ring])

    if n_outliers > 0:
        body = np.vstack([body, _uniform_outliers(rng, n_outliers, body)])
        labels = np.concatenate([labels, 1 + np.arange(n_outliers) % 3])

    desc = (
        f"banana_spheres(n_banana={n_banana}, n_ring={n_ring}, n_outliers={n_outliers}, "
        f"ring_radius={ring_radius}, arc_radius={arc_radius}, noise_sd={noise_sd})"
    )
    return LabeledDataset(DataMatrix(body), Partition(labels), desc)


def gen_gaussian_blobs(centers, sizes, sigma: float = 1.0, seed: Seed = 0) -> LabeledDataset:
    """Isotropic Gaussian blobs at the given centers, one truth group each."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    sizes = [int(s) for s in sizes]
    if len(sizes) != centers.shape[0]:
        raise ValueError("centers and sizes must align")
    rng = generator(seed)
    parts, labels = [], []
    for gid, (center, size) in enumerate(zip(centers, sizes), start=1):
        parts.append(center + rng.normal(0.0, sigma, size=(size, centers.shape[1])))
        labels.append(np.full(size, gid, dtype=np.int64))
    desc = f"gaussian_blobs(k={len(sizes)}, sizes={sizes}, sigma={sigma})"
    return LabeledDataset(
        DataMatrix(np.vstack(parts)), Partition(np.concatenate(labels)), desc
    )
