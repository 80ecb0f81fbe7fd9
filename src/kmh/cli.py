"""Command-line front end: ingest a CSV, run the merge pipeline, and emit
labels, a JSON report, the similarity matrix, and a clustered heatmap."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import os
import sys
import time

import numpy as np
import scipy
from scipy.cluster.hierarchy import leaves_list, linkage

from . import __version__
from .core import DataMatrix, Partition, adjusted_rand_index
from .consensus import SimilarityMatrix
from .datagen import gen_banana_spheres, gen_bullseye, gen_gaussian_blobs
from .pipeline import SEED_STREAMS, KmhConfig, KmhError, run_kmh

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

FLOAT_FMT = "%.17g"


class InputError(Exception):
    """Bad input file or `kmh gen` option (exit code 2); a `kmh run` setting
    no run can use is a `KmhError`."""


def _atomic_write(path: str, lines) -> None:
    """Write each of `lines` and a newline to a temporary file as it comes,
    then move the file onto `path`."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    os.replace(tmp, path)


def read_csv(path: str, truth_col: int | None = None):
    """Parse a numeric CSV with an optional single header line, the first
    non-blank one; blank lines are skipped.

    Returns (DataMatrix, truth Partition or None). truth_col indexes the
    ground-truth column (0-based); it is excluded from the features.
    """
    if not os.path.isfile(path):
        raise InputError(f"input file not found: {path}")
    rows = []
    with open(path) as fh:
        numbered = ((lineno, line.strip()) for lineno, line in enumerate(fh, start=1))
        for nth, (lineno, line) in enumerate((n, text) for n, text in numbered if text):
            try:
                rows.append([float(f) for f in line.split(",")])
            except ValueError:
                if nth == 0:  # the header, on the first non-blank line
                    continue
                raise InputError(f"{path}: line {lineno}: non-numeric field")
            if len(rows) > 1 and len(rows[-1]) != len(rows[0]):
                raise InputError(
                    f"{path}: line {lineno}: expected {len(rows[0])} fields, got {len(rows[-1])}"
                )
    if len(rows) < 2:
        raise InputError(f"{path}: need at least 2 data rows")
    values = np.asarray(rows)

    truth = None
    if truth_col is not None:
        if not (0 <= truth_col < values.shape[1]):
            raise InputError(f"truth column {truth_col} out of range")
        raw = values[:, truth_col]
        # an absolute tolerance: a relative one lets 100000.4 pass as a label
        if not np.allclose(raw, np.round(raw), rtol=0.0) or raw.min() < 0:
            raise InputError("truth column must hold nonnegative integer labels")
        truth = Partition.from_labels(np.round(raw).astype(np.int64))
        values = np.delete(values, truth_col, axis=1)
    if values.shape[1] < 1:
        raise InputError("no feature columns remain")
    try:
        return DataMatrix(values), truth
    except ValueError as exc:
        raise InputError(f"{path}: {exc}")


def write_labels(path: str, partition: Partition) -> None:
    rows = (f"{i},{int(l)}" for i, l in enumerate(partition.labels))
    _atomic_write(path, itertools.chain(["index,label"], rows))


def write_similarity(path: str, sim: SimilarityMatrix) -> None:
    # psi = count/N holds few distinct values (never -0.0), and a row is its
    # signature's row of the table: format each value and each row once
    values, inverse = np.unique(sim.share, return_inverse=True)
    table = np.array([FLOAT_FMT % v for v in values], dtype=object)
    cells = table[inverse.reshape(sim.share.shape)][:, sim.sig]
    rows = [",".join(row) for row in cells.tolist()]
    header = "obs," + ",".join(str(int(i)) for i in sim.indices)
    lines = (f"{int(i)},{rows[s]}" for i, s in zip(sim.indices, sim.sig.tolist()))
    _atomic_write(path, itertools.chain([header], lines))


def heatmap_order(sim: SimilarityMatrix) -> np.ndarray:
    """A signature-level order of the rows: the signatures in the leaf order
    of the single-linkage tree over their 1 - psi, each signature's rows
    together in index order."""
    s = sim.share.shape[0]
    leaves = np.zeros(1, dtype=np.intp)
    if s > 1:
        off = (1.0 - sim.share)[np.triu_indices(s, 1)]
        leaves = leaves_list(linkage(off, method="single"))
    return np.argsort(np.argsort(leaves)[sim.sig], kind="stable")


def write_heatmap(sim: SimilarityMatrix, path: str, order_path: str) -> np.ndarray:
    """Grayscale plain-PGM heatmap of psi, rows/cols in `heatmap_order`,
    plus a sidecar CSV mapping pixel position to observation."""
    order = heatmap_order(sim)
    leaf_sig = sim.sig[order]
    pixels = np.round(255.0 * sim.share).astype(int)
    levels = np.array([str(v) for v in range(256)], dtype=object)
    # one pixel row per signature, its columns in leaf order
    pixel_rows = [" ".join(row) for row in levels[pixels[:, leaf_sig]].tolist()]
    m = leaf_sig.size
    lines = (pixel_rows[s] for s in leaf_sig.tolist())
    _atomic_write(path, itertools.chain(["P2", f"{m} {m}", "255"], lines))
    rows = (f"{pos},{int(sim.indices[o])}" for pos, o in enumerate(order))
    _atomic_write(order_path, itertools.chain(["position,observation"], rows))
    return order


def _report_payload(report, truth: Partition | None) -> dict:
    krz = report.krz_trace
    payload = {
        "schema_version": 3,
        "config": dataclasses.asdict(report.config_resolved),
        "n": report.final_partition.n,
        "n_star": report.scatter.n_star,
        "scatter_indices": [int(i) for i in report.scatter.scatter_indices],
        "k0_candidates": [int(k) for k in report.k0_candidates],
        "krzanowski": {
            "k": [int(k) for k in krz.k_values],
            "trace": [float(t) for t in krz.traces],
            "diff_k": [int(k) for k in krz.diff_k],
            "diff": [float(d) for d in krz.diffs],
            "ratio_k": [int(k) for k in krz.ratio_k],
            "ratio": [float(r) for r in krz.ratios],
        },
        "merge_heights": {
            str(k0): [float(h) for h in trace.heights]
            for k0, trace in report.merge_traces.items()
        },
        "change_points": {
            str(k0): {
                "cps": [float(c) for c in rep.cps],
                "kstars": [int(k) for k in rep.candidate_kstars],
            }
            for k0, rep in report.change_point_reports.items()
        },
        "kstar": {
            "chosen": int(report.chosen_kstar),
            "known": report.kstar_estimate is None,
            "per_replicate": None
            if report.kstar_estimate is None
            else [int(k) for k in report.kstar_estimate.per_replicate],
            "frequencies": None
            if report.kstar_estimate is None
            else {str(k): v for k, v in sorted(report.kstar_estimate.frequencies.items())},
            "median": None
            if report.kstar_estimate is None
            else int(report.kstar_estimate.median_kstar),
        },
        "candidates": [
            {"k0": int(c.k0), "kstar": int(c.kstar)} for c in report.candidate_partitions
        ],
        "selection": {
            "pool": [{"k0": int(c.k0), "kstar": int(c.kstar)} for c in report.selection_pool],
            "ari_matrix": [[float(v) for v in row] for row in report.ari_matrix],
            "mean_ari": [float(v) for v in report.mean_ari],
            "chosen_index": int(report.chosen_index),
        },
        "ari_vs_truth": None
        if truth is None
        else float(adjusted_rand_index(report.final_partition, truth)),
        "warnings": list(report.warnings),
    }
    return payload


def _cutoff_pair(text: str) -> tuple:
    values = tuple(float(v) for v in text.split(","))
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two values MEAN,CV, got {text!r}")
    return values


def config_from_args(args) -> KmhConfig:
    """The `KmhConfig` of the config flags given on the command line, each
    under its field's name; every other field keeps its `KmhConfig` default."""
    given = vars(args)
    config = {f.name: given[f.name] for f in dataclasses.fields(KmhConfig) if f.name in given}
    if "linkage_cutoffs" in given:
        config["mean_cut"], config["cv_cut"] = given["linkage_cutoffs"]
    return KmhConfig(**config)


def cmd_run(args) -> int:
    t_start = time.monotonic()
    data, truth = read_csv(args.input, truth_col=args.truth_col)
    report = run_kmh(data, config_from_args(args))
    os.makedirs(args.output_dir, exist_ok=True)
    payload = _report_payload(report, truth)

    paths = {
        name: os.path.join(args.output_dir, name + ext)
        for name, ext in [
            ("labels", ".csv"),
            ("report", ".json"),
            ("similarity", ".csv"),
            ("heatmap", ".pgm"),
            ("heatmap_order", ".csv"),
            ("manifest", ".json"),
        ]
    }
    write_labels(paths["labels"], report.final_partition)
    _atomic_write(paths["report"], [json.dumps(payload, indent=1, sort_keys=True)])
    write_similarity(paths["similarity"], report.similarity)
    write_heatmap(report.similarity, paths["heatmap"], paths["heatmap_order"])

    manifest = {
        "input": os.path.abspath(args.input),
        "seed": report.config_resolved.seed,
        "config": payload["config"],
        "versions": {
            "kmh": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "outputs": {k: os.path.abspath(v) for k, v in paths.items()},
        "seed_substreams": list(SEED_STREAMS),
        "timings_sec": {**report.timings, "total": time.monotonic() - t_start},
    }
    _atomic_write(paths["manifest"], [json.dumps(manifest, indent=1, sort_keys=True)])

    print(
        f"n={data.n} n*={report.scatter.n_star} K*={report.chosen_kstar} "
        f"pool={len(report.selection_pool)} chosen={report.chosen_index}"
    )
    if truth is not None:
        print(f"ARI vs truth: {payload['ari_vs_truth']:.4f}")
    return EXIT_OK


def _write_dataset_csv(path: str, dataset) -> None:
    out = np.column_stack([dataset.data.values, dataset.truth.labels.astype(float)])
    _atomic_write(path, (",".join(FLOAT_FMT % v for v in row) for row in out))


def cmd_gen(args) -> int:
    """Call the shape's generator with only the options given on the
    command line, so every other one keeps the generator's default."""
    own = ("command", "shape", "func", "generator", "out")
    try:
        ds = args.generator(**{k: v for k, v in vars(args).items() if k not in own})
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _write_dataset_csv(args.out, ds)
    print(f"{ds.descriptor} -> {args.out} ({ds.data.n} rows, truth in last column)")
    return EXIT_OK


def _centers(text: str) -> list:
    centers = [[float(v) for v in point.split(",")] for point in text.split(";")]
    if len({len(c) for c in centers}) != 1:
        raise argparse.ArgumentTypeError(f"centres of unequal dimension in {text!r}")
    return centers


def _sizes(text: str) -> list:
    return [int(s) for s in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmh",
        description="Cluster general-shaped groups by merging K-means entities hierarchically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a config flag left out is not passed, so KmhConfig's default holds
    run = sub.add_parser("run", help="cluster a CSV dataset", argument_default=argparse.SUPPRESS)
    run.add_argument("--input", required=True, help="input CSV (optional header line)")
    run.add_argument("--output-dir", default=".", help="directory for output artifacts")
    run.add_argument("--seed", type=int)
    run.add_argument(
        "--kstar", type=int, dest="kstar_known", metavar="KSTAR", help="known number of clusters"
    )
    run.add_argument("--M", type=int, help="number of K0 candidates")
    run.add_argument("--L", type=int, help="stopping candidates per K0")
    run.add_argument("--B", type=int, help="consensus replicates")
    run.add_argument("--G", type=int, help="largest candidate group size")
    run.add_argument("--standardize", action="store_true")
    run.add_argument("--scatter-frac", type=float)
    run.add_argument(
        "--linkage-cutoffs",
        type=_cutoff_pair,
        metavar="MEAN,CV",
        help="similarity mean / coefficient-of-variation cutoffs for linkage choice",
    )
    run.add_argument("--subsample", type=int)
    run.add_argument("--truth-col", type=int, default=None, help="0-based ground-truth column")
    run.add_argument("--threads", type=int)
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen", help="generate a benchmark dataset CSV")
    gen_sub = gen.add_subparsers(dest="shape", required=True)
    shapes = {}
    for shape, generator in [
        ("bullseye", gen_bullseye),
        ("banana-spheres", gen_banana_spheres),
        ("blobs", gen_gaussian_blobs),
    ]:
        # an option left out is not passed, so the generator's default holds
        shapes[shape] = gen_sub.add_parser(shape, argument_default=argparse.SUPPRESS)
        shapes[shape].add_argument("--seed", type=int)
        shapes[shape].add_argument("--out", default=shape.replace("-", "_") + ".csv")
        shapes[shape].set_defaults(func=cmd_gen, generator=generator)

    shapes["bullseye"].add_argument("--n-core", type=int)
    shapes["bullseye"].add_argument("--n-ring", type=int)
    shapes["bullseye"].add_argument("--noise-sd", type=float)

    shapes["banana-spheres"].add_argument("--n-banana", type=int)
    shapes["banana-spheres"].add_argument("--n-ring-outer", type=int, dest="n_ring")
    shapes["banana-spheres"].add_argument("--n-outliers", type=int)

    # gen_gaussian_blobs has no default layout, so the CLI keeps one
    shapes["blobs"].add_argument(
        "--centers", type=_centers, default="0,0;10,0;5,8.66", help="x,y;x,y;..."
    )
    shapes["blobs"].add_argument("--sizes", type=_sizes, default="100,100,100")
    shapes["blobs"].add_argument("--sigma", type=float)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, KmhError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
