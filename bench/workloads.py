"""Seeded benchmark workloads: labelled datasets written as `kmh run` input CSVs.

Run as a script it performs one benchmark set-up in a fresh interpreter
(import kmh, generate the dataset, write the CSV) and prints the seconds it
took, so the benchmark can time set-up the way a new process pays for it:

    python3 bench/workloads.py <workload> <seed> <csv_path>
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from collections.abc import Callable  # noqa: E402
from dataclasses import dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import kmh.cli  # noqa: E402,F401  (set-up pays for the CLI's imports too)
from kmh.core import DataMatrix, Partition  # noqa: E402
from kmh.datagen import (  # noqa: E402
    LabeledDataset,
    gen_banana_spheres,
    gen_bullseye,
    gen_gaussian_blobs,
)

# Same as the library's KmhConfig defaults; the CLI's own default (0.3,1.0)
# clusters bullseye at K*=6, so every workload pins these explicitly.
LINKAGE_CUTOFFS = "0.5,0.8"


def gen_blobs_dup(
    seed: int,
    blobs: int = 8,
    per_blob: int = 112,
    dims: int = 5,
    duplicates: int = 300,
) -> LabeledDataset:
    """Isotropic unit-variance Gaussian blobs, plus `duplicates` rows redrawn
    (with replacement) from the blob rows; a copy keeps the truth label of
    its source row. Centres are drawn uniformly in [-10, 10]^dims, redrawing
    the set until every pair is 8 apart: blobs closer than that overlap, and
    merging them is a right answer the truth labels would score as wrong."""
    center_seed, blob_seed, dup_seed = np.random.SeedSequence(seed).spawn(3)
    rng = np.random.default_rng(center_seed)
    while True:
        centers = rng.uniform(-10.0, 10.0, size=(blobs, dims))
        gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=-1)
        if gaps[np.triu_indices(blobs, 1)].min() >= 8.0:
            break
    base = gen_gaussian_blobs(centers, [per_blob] * blobs, sigma=1.0, seed=blob_seed)
    pick = np.random.default_rng(dup_seed).integers(0, base.data.n, size=duplicates)
    values = np.vstack([base.data.values, base.data.values[pick]])
    labels = np.concatenate([base.truth.labels, base.truth.labels[pick]])
    desc = f"blobs_dup(blobs={blobs}, per_blob={per_blob}, dims={dims}, duplicates={duplicates})"
    return LabeledDataset(DataMatrix(values), Partition(labels), desc)


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], LabeledDataset]
    threads: int  # passed as `kmh run --threads`
    ari_floor: float | None  # an operation whose ARI against the truth is lower fails


# Why each workload exists, and why banana is not in BENCHMARK.json: bench/README.md.
# Bullseye has no ARI floor: over seeds its ARI is bimodal (about a third of
# operations score 0.73 or less, the rest about 1), so a floor would fail
# operations of an unchanged program.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("banana", lambda seed: gen_banana_spheres(seed=seed), threads=1, ari_floor=0.5),
        Workload("bullseye", lambda seed: gen_bullseye(seed=seed), threads=1, ari_floor=None),
        Workload("blobs-dup", gen_blobs_dup, threads=2, ari_floor=0.9),
    ]
}


def write_csv(path: str, dataset: LabeledDataset) -> None:
    """Features then the truth label as the last column, no header."""
    table = np.column_stack([dataset.data.values, dataset.truth.labels.astype(float)])
    with open(path, "w") as fh:
        fh.write("\n".join(",".join("%.17g" % v for v in row) for row in table) + "\n")


def set_up(workload: Workload, seed: int, csv_path: str) -> LabeledDataset:
    dataset = workload.generate(seed)
    write_csv(csv_path, dataset)
    return dataset


if __name__ == "__main__":
    set_up(WORKLOADS[sys.argv[1]], int(sys.argv[2]), sys.argv[3])
    print(time.perf_counter() - _T0)
