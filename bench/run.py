"""Seeded end-to-end benchmark of `kmh run`, with a traced per-layer split.

    python3 bench/run.py --workload bullseye --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all     # every workload, metric table each

One operation is one in-process `kmh run --truth-col ...` (`kmh.cli.main`):
CSV parse, `run_kmh` and the six artifacts. See bench/README.md for the
metrics, the workloads and the measured baseline.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # Set before numpy loads: BLAS/OpenMP pools stay at one thread, so a
    # workload's `kmh run --threads` is the only parallelism in the process.
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

if not os.path.isfile(os.path.join(SRC, "kmh", "cli.py")):
    sys.exit(f"error: kmh sources not found under {SRC}; run from a checkout of the repository")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402  (puts SRC first on sys.path)
import kmh.cli  # noqa: E402

ARTIFACTS = (
    "labels.csv",
    "report.json",
    "similarity.csv",
    "heatmap.pgm",
    "heatmap_order.csv",
    "manifest.json",
)
SETUP_REPEATS = 5
PHASES = ("standardize", "scatter", "krzanowski", "partitions", "consensus", "selection", "total")


def op_seed(seed: int, i: int) -> int:
    """Operation i of a run with workload seed `seed` clusters the dataset
    generated from this seed, and passes it to `kmh run --seed` as well."""
    return 1000 * seed + i


@dataclass
class Op:
    seed: int
    wall_s: float
    cpu_s: float
    error: str  # empty when the operation passed its output check
    ari: float | None = None
    kstar: int | None = None
    labels_sha256: str | None = None
    config: dict | None = None
    timings: dict | None = None
    peak_mb: float | None = None  # peak traced heap inside run_kmh
    op_peak_mb: float | None = None  # same, whole operation (CSV parse and writers too)


def adjusted_rand(a: np.ndarray, b: np.ndarray) -> float:
    """ARI with every label, scatter (0) included, an ordinary group."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)

    def pairs(x):
        return float((x * (x - 1.0) / 2.0).sum())

    cells, rows, cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([float(a.size)]))
    top = 0.5 * (rows + cols)
    return 1.0 if top == expected else (cells - expected) / (top - expected)


def check_outputs(op: Op, out_dir: str, truth: np.ndarray, ari_floor: float | None) -> Op:
    """Fill in op's outputs, or set op.error to the first check that fails:
    all six artifacts exist, labels.csv has one row per input row with ids
    0..K*, its ARI matches report.json and reaches the workload's floor."""
    missing = [a for a in ARTIFACTS if not os.path.isfile(os.path.join(out_dir, a))]
    if missing:
        op.error = f"missing artifacts {missing}"
        return op
    with open(os.path.join(out_dir, "labels.csv"), "rb") as fh:
        raw = fh.read()
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    op.labels_sha256 = hashlib.sha256(raw).hexdigest()
    op.kstar = int(report["kstar"]["chosen"])
    op.config = manifest["config"]
    op.timings = manifest["timings_sec"]

    lines = raw.decode().split()
    table = np.array([[int(v) for v in line.split(",")] for line in lines[1:]], dtype=np.int64)
    if not lines or lines[0] != "index,label" or table.shape != (truth.size, 2):
        op.error = f"labels.csv: expected header and {truth.size} rows"
        return op
    index, labels = table[:, 0], table[:, 1]
    if not np.array_equal(index, np.arange(truth.size)):
        op.error = "labels.csv: index column is not 0..n-1"
        return op
    used = set(np.unique(labels).tolist())
    if not used <= set(range(op.kstar + 1)) or not set(range(1, op.kstar + 1)) <= used:
        op.error = f"labels.csv: ids {sorted(used)} are not 1..K*={op.kstar} (plus 0 for scatter)"
        return op
    op.ari = adjusted_rand(labels, truth)
    if abs(op.ari - report["ari_vs_truth"]) > 1e-9:
        op.error = f"ARI {op.ari} disagrees with report.json {report['ari_vs_truth']}"
    elif ari_floor is not None and op.ari < ari_floor:
        op.error = f"ARI {op.ari:.4f} below the workload floor {ari_floor}"
    return op


@dataclass
class Input:
    seed: int
    argv: list
    truth: np.ndarray
    out_dir: str


def prepare(workload, kmh_seed: int, work: str) -> Input:
    """Generate an operation's dataset and its `kmh run` arguments (untimed)."""
    csv_path = os.path.join(work, "input.csv")
    out_dir = os.path.join(work, "out")
    dataset = workloads.set_up(workload, kmh_seed, csv_path)
    argv = [
        "run",
        "--input", csv_path,
        "--output-dir", out_dir,
        "--truth-col", str(dataset.data.p),
        "--seed", str(kmh_seed),
        "--threads", str(workload.threads),
        "--linkage-cutoffs", workloads.LINKAGE_CUTOFFS,
    ]  # fmt: skip
    return Input(kmh_seed, argv, dataset.truth.labels, out_dir)


class HeapProbe:
    """Peak traced heap of one operation, and of its `run_kmh` call alone,
    read through tracemalloc and a wrapper on the CLI's `run_kmh` binding."""

    def __init__(self):
        self.pipeline = self.whole = 0

    @contextlib.contextmanager
    def watch(self):
        original = kmh.cli.run_kmh

        def measured(*args, **kwargs):
            self.whole = max(self.whole, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return original(*args, **kwargs)
            finally:
                self.pipeline = tracemalloc.get_traced_memory()[1]
                self.whole = max(self.whole, self.pipeline)
                tracemalloc.reset_peak()

        tracemalloc.start()
        kmh.cli.run_kmh = measured
        try:
            yield self
        finally:
            kmh.cli.run_kmh = original
            self.whole = max(self.whole, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()


def run_op(inp: Input, ari_floor: float | None, tracer=None, heap: bool = False) -> Op:
    """Run `kmh run` once and check what it wrote. With `tracer`, the call
    is the root span; with `heap`, it runs under tracemalloc, so the op's
    heap peaks are meaningful and its timings are not."""
    shutil.rmtree(inp.out_dir, ignore_errors=True)
    probe = HeapProbe() if heap else None
    if tracer is not None:
        around = tracer.span(spans.ROOT_SPAN)
    else:
        around = probe.watch() if probe else contextlib.nullcontext()
    captured = io.StringIO()
    error = ""
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with around:
                code = kmh.cli.main(inp.argv)
        except Exception as exc:  # an unexpected crash fails this operation only
            code, error = None, f"raised {exc!r}"
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    op = Op(inp.seed, wall, cpu, error)
    if probe:
        op.peak_mb, op.op_peak_mb = probe.pipeline / 2**20, probe.whole / 2**20
    if code != 0 and not error:
        op.error = f"exit code {code}: {captured.getvalue().strip()[-300:]}"
    if op.error:
        return op
    try:
        return check_outputs(op, inp.out_dir, inp.truth, ari_floor)
    except (ValueError, KeyError, TypeError) as exc:  # malformed artifact
        op.error = f"unreadable outputs: {exc!r}"
        return op


def time_setup(workload, seed: int, work: str) -> float:
    """Median over fresh interpreters of import + dataset generation + CSV write."""
    argv = [sys.executable, workloads.__file__, workload.name, str(seed), os.path.join(work, "setup.csv")]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def machine_info() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def end_to_end(workload, seed: int, seconds: float, work: str):
    """Timed operations, each on a fresh dataset, until `seconds` pass; then
    the first dataset again under tracemalloc for the heap peak, which must
    reproduce the timed run's labels."""
    setup_s = time_setup(workload, op_seed(seed, 0), work)
    timed = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < seconds:
        timed.append(run_op(prepare(workload, op_seed(seed, len(timed)), work), workload.ari_floor))
    heaped = run_op(prepare(workload, op_seed(seed, 0), work), workload.ari_floor, heap=True)
    if not heaped.error and heaped.labels_sha256 != timed[0].labels_sha256:
        heaped.error = "labels differ from the timed run on the same input and seed"
    ops = timed + [heaped]

    aris = [op.ari for op in timed if op.ari is not None]
    metrics = {
        "wall_s": (statistics.median(op.wall_s for op in timed), "s"),
        "cpu_s": (statistics.median(op.cpu_s for op in timed), "s"),
        "ari_truth": (statistics.median(aris) if aris else 0.0, "ari"),
        "peak_mb": (heaped.peak_mb or 0.0, "MiB"),
        "setup_s": (setup_s, "s"),
        "pass_rate": (100.0 * sum(not op.error for op in ops) / len(ops), "%"),
    }
    return ops, metrics, True


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(traced: list, untraced_wall: float, timings: dict) -> dict:
    selfs = spans.self_times(traced)
    metrics = {}
    for name in spans.SPAN_NAMES:
        mine = [s for s in traced if s.name == name]
        metrics[f"{name}.calls"] = (len(mine), "count")
        metrics[f"{name}.s"] = (sum(s.end - s.start for s in mine), "s")
        metrics[f"{name}.self_s"] = (sum(selfs[s.id] for s in mine), "s")
    counts: dict[str, int] = {}
    for s in traced:
        for key, value in s.counts.items():
            counts[key] = counts.get(key, 0) + value

    def total(name):
        return metrics[f"{name}.s"][0]

    gflop = counts.get("assign_flop", 0) / 1e9
    replicates = counts.get("replicates", 0)
    metrics.update(
        {
            "kmeans.lloyd.sweeps": (counts.get("sweeps", 0), "count"),
            "kmeans.lloyd.capped": (counts.get("capped", 0), "count"),
            "kmeans.ms_per_sweep": (1e3 * _ratio(total("kmeans.lloyd"), counts.get("sweeps", 0)), "ms"),
            "kmeans.assign_gflop": (gflop, "GFLOP"),
            "kmeans.assign_gflop_per_s": (_ratio(gflop, total("kmeans.lloyd")), "GFLOP/s"),
            "scatter.removed": (counts.get("removed", 0), "count"),
            "consensus.replicates": (replicates, "count"),
            "consensus.ms_per_replicate": (1e3 * _ratio(total("consensus.estimate_kstar"), replicates), "ms"),
            "consensus.psi_cells": (counts.get("psi_cells", 0), "count"),
            "consensus.kstar_vote_share": (_ratio(counts.get("kstar_votes", 0), replicates), "share"),
            "gaussdist.pairs": (counts.get("pairs", 0), "count"),
            "gaussdist.us_per_pair": (1e6 * _ratio(total("gaussdist.entity_distance_matrix"), counts.get("pairs", 0)), "us"),
            "hierarchy.merges": (counts.get("merges", 0), "count"),
            "cli.write.s": (sum(total(f"cli.write_{w}") for w in ("labels", "similarity", "heatmap")), "s"),
        }
    )  # fmt: skip
    for phase in PHASES:
        metrics[f"pipeline.phase.{phase}.s"] = (float(timings.get(phase, 0.0)), "s")
    wall = total(spans.ROOT_SPAN)
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.self_sum_s"] = (sum(selfs.values()), "s")
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
    return metrics


def traced(workload, seed: int, seconds: float, work: str):
    """Untraced operations on one dataset until `seconds` pass, then one
    traced operation on the same dataset; spans go to .bench_out/."""
    inp = prepare(workload, op_seed(seed, 0), work)
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(run_op(inp, workload.ari_floor))
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced_op = run_op(inp, workload.ari_floor, tracer=tracer)
    if not traced_op.error and traced_op.labels_sha256 != ops[0].labels_sha256:
        traced_op.error = "traced labels differ from the untraced run"
    ops.append(traced_op)

    with open(os.path.join(OUT_DIR, f"{workload.name}-seed{seed}-spans.json"), "w") as fh:
        json.dump(tracer.to_json(), fh)
    untraced = statistics.median(op.wall_s for op in ops[:-1])
    metrics = layer_metrics(tracer.spans, untraced, traced_op.timings or {})
    # in a serial run the per-layer self times must add up to the traced wall time
    serial = workload.threads == 1
    consistent = not serial or abs(metrics["trace.self_sum_s"][0] - metrics["trace.wall_s"][0]) < 1e-6
    return ops, metrics, consistent


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        measure = traced if trace else end_to_end
        ops, metrics, consistent = measure(workload, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(bool(op.error) for op in ops)
    result = {
        "correct": failed == 0 and consistent,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "threads": workload.threads,
        "machine": machine_info(),
        "config": next((op.config for op in ops if op.config), None),
        "ops": [asdict(op) for op in ops],
        "result": result,
    }
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: attempted={result['attempted']} failed={result['failed']} correct={result['correct']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:>16.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not kmh.cli.__file__.startswith(SRC + os.sep):
        print(f"error: kmh imported from {kmh.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(name, results[name])
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
