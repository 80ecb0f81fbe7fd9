"""`kmh run` end to end through `cli.main`: the artifact set, exit codes for
bad input, and the defaults it shares with the library."""

import dataclasses
import hashlib
import json
import os
import tempfile

import numpy as np
import pytest
from helpers import expand, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.cluster.hierarchy import cophenet, fcluster, linkage
from scipy.spatial.distance import squareform

from kmh.cli import (
    EXIT_OK,
    EXIT_USAGE,
    FLOAT_FMT,
    InputError,
    build_parser,
    config_from_args,
    main,
    read_csv,
    write_heatmap,
    write_similarity,
)
from kmh.consensus import SimilarityMatrix
from kmh.datagen import gen_banana_spheres, gen_bullseye
from kmh.pipeline import KmhConfig

ARTIFACTS = [
    "labels.csv",
    "report.json",
    "similarity.csv",
    "heatmap.pgm",
    "heatmap_order.csv",
    "manifest.json",
]


@pytest.fixture
def bullseye_csv(tmp_path):
    """90 rows, features in columns 0-1, truth label in column 2."""
    path = tmp_path / "bullseye.csv"
    argv = ["gen", "bullseye", "--n-core", "30", "--n-ring", "60", "--seed", "1"]
    assert main(argv + ["--out", str(path)]) == EXIT_OK
    return path


def test_run_writes_artifacts(bullseye_csv, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--input", str(bullseye_csv), "--output-dir", str(out)]
    assert main(argv + ["--truth-col", "2", "--B", "10"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)

    report = json.loads((out / "report.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert report["config"] == manifest["config"]
    assert report["config"]["B"] == 10
    # G resolved from n=90: floor(sqrt(90))
    assert report["config"]["G"] == 9

    labels = np.loadtxt(out / "labels.csv", delimiter=",", skiprows=1, dtype=np.int64)
    assert labels.shape == (90, 2)
    assert np.array_equal(labels[:, 0], np.arange(90))
    assert "ARI vs truth" in capsys.readouterr().out


# SHA-256 of the artifacts of `kmh run` on gen_bullseye(seed=0) with
# --seed 0 --linkage-cutoffs 0.5,0.8 and the truth column, recorded with the
# per-cell writers and the B-replicate consensus loop. The report.json digest
# is that schema-2 report with the config keys threshold, kmeans_starts and
# scatter_starts deleted and schema_version 3, re-dumped as the CLI dumps it,
# then re-recorded for the merge heights of the BLAS-free merge kernel and
# scipy's `chndtr`. heatmap.pgm and heatmap_order.csv were re-recorded for
# the signature-level heatmap order, which lists rows at distance 0 (one
# signature) together in index order. Last recorded on Python 3.11.7,
# numpy 2.4.6 and scipy 1.17.1.
ARTIFACT_GOLDEN = {
    "labels.csv": "463963f3c429eaf22498823961d42bd915a78102dfce98a0d81053cb5e8af665",
    "report.json": "5ee268bf75ba10126083fb46be55a76de2235d51de79e6a44c1c24dec548a4c7",
    "similarity.csv": "054f5fc5227d6fbdaa2cb57e4d959522f132ac9f5696c7f5c4a9449a46c09b61",
    "heatmap.pgm": "9bf075f7ed732db1f0df24ab49d005a24d24003bffc8e08b2bf227bc0486d1d9",
    "heatmap_order.csv": "df95967f17b62751063ad45ec099c12d0de7332778e6d9be0da5bc4294004d7e",
}


def test_bullseye_artifacts_match_golden(tmp_path):
    path, out = tmp_path / "bullseye.csv", tmp_path / "out"
    gen = ["gen", "bullseye", "--n-core", "60", "--n-ring", "340", "--seed", "0"]
    assert main(gen + ["--out", str(path)]) == EXIT_OK
    argv = ["run", "--input", str(path), "--output-dir", str(out), "--truth-col", "2"]
    assert main(argv + ["--seed", "0", "--linkage-cutoffs", "0.5,0.8"]) == EXIT_OK
    for name, digest in ARTIFACT_GOLDEN.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


def random_similarity(m: int = 60, N: int = 97, seed: int = 0) -> SimilarityMatrix:
    """Symmetric psi of random counts/N, unit diagonal: up to N+1 distinct
    values, every row its own signature."""
    counts = np.triu(np.random.default_rng(seed).integers(0, N + 1, size=(m, m)), 1)
    counts = counts + counts.T + N * np.eye(m, dtype=np.int64)
    return SimilarityMatrix(counts / N, np.arange(m), np.arange(m) * 3 + 1)


def signature_heavy_similarity(
    m: int = 150, N: int = 13, seed: int = 0, signatures: int = 9
) -> SimilarityMatrix:
    """A table over `signatures` signatures of random partitions, rows in
    random signature order, so rows repeat and psi ties abound."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(1, 4, size=(signatures, N))
    sig = rng.integers(0, signatures, size=m)
    sig[:signatures] = np.arange(signatures)
    counts = (pool[:, None, :] == pool[None, :, :]).sum(axis=2)
    return SimilarityMatrix(counts / N, sig, np.sort(rng.choice(5 * m, size=m, replace=False)))


def per_cell_similarity(sim: SimilarityMatrix) -> str:
    lines = ["obs," + ",".join(str(int(i)) for i in sim.indices)]
    for i, row in zip(sim.indices, expand(sim)):
        lines.append(f"{int(i)}," + ",".join(FLOAT_FMT % v for v in row))
    return "\n".join(lines) + "\n"


def per_cell_heatmap(sim: SimilarityMatrix, order: np.ndarray) -> str:
    psi = expand(sim)
    m = psi.shape[0]
    pixels = np.round(255.0 * psi[np.ix_(order, order)]).astype(int)
    lines = ["P2", f"{m} {m}", "255"] + [" ".join(str(v) for v in row) for row in pixels]
    return "\n".join(lines) + "\n"


def single_linkage(psi: np.ndarray) -> np.ndarray:
    """scipy's single-linkage tree over 1 - psi."""
    return linkage(squareform(1.0 - psi, checks=False), method="single")


@pytest.mark.parametrize(
    "sim, distinct",
    [
        (random_similarity(seed=0), 90),
        (random_similarity(seed=1), 90),
        (signature_heavy_similarity(), 5),
    ],
    ids=["0", "1", "signature-heavy"],
)
def test_writers_match_per_cell_formatting(tmp_path, sim, distinct):
    assert np.unique(sim.share).size > distinct
    write_similarity(str(tmp_path / "sim.csv"), sim)
    assert (tmp_path / "sim.csv").read_text() == per_cell_similarity(sim)
    # the signature-level tree is the row-level tree: rows of one signature
    # merge at height 0, and the cophenetic heights expand to the rows'
    row_tree = single_linkage(expand(sim))
    signature_level = squareform(cophenet(single_linkage(sim.share)))
    assert np.array_equal(signature_level[np.ix_(sim.sig, sim.sig)], squareform(cophenet(row_tree)))
    order_csv = tmp_path / "order.csv"
    order = write_heatmap(sim, str(tmp_path / "map.pgm"), str(order_csv))
    assert np.array_equal(np.sort(order), np.arange(sim.sig.size))
    # a dendrogram order: each cluster of each cut of the row-level tree is one run of it
    for height in np.unique(row_tree[:, 2]):
        groups = fcluster(row_tree, height, criterion="distance")[order]
        assert np.count_nonzero(np.diff(groups)) == groups.max() - 1
    assert (tmp_path / "map.pgm").read_text() == per_cell_heatmap(sim, order)
    want = ["position,observation"] + [f"{pos},{sim.indices[o]}" for pos, o in enumerate(order)]
    assert order_csv.read_text() == "\n".join(want) + "\n"


def test_write_similarity_holds_about_one_row(tmp_path):
    # 3000 rows over 16 signatures: a file of about 36 MB, one formatted row per signature in memory
    sim = signature_heavy_similarity(m=3000, N=4, signatures=16)
    path = tmp_path / "sim.csv"
    assert traced_peak(lambda: write_similarity(str(path), sim)) < 2 * 2**20
    assert path.stat().st_size > 30 * 10**6


def test_write_heatmap_reads_the_signature_table(tmp_path):
    # 3000 rows over 16 signatures: a row-level condensed 1 - psi would take 36 MB
    sim = signature_heavy_similarity(m=3000, N=4, signatures=16)
    paths = str(tmp_path / "map.pgm"), str(tmp_path / "order.csv")
    assert traced_peak(lambda: write_heatmap(sim, *paths)) < 2 * 2**20


@pytest.fixture
def three_values_csv(tmp_path):
    """120 rows holding only 3 distinct values."""
    path = tmp_path / "dup.csv"
    rows = np.repeat([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]], 40, axis=0)
    np.savetxt(path, rows, delimiter=",")
    return path


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--kstar", "50"], "kstar=50"),
        (["--B", "0"], "B"),
        (["--G", "10"], "distinct"),
        (["--subsample", "1"], "subsample"),
        (["--subsample", "0"], "subsample"),
        (["--scatter-frac", "1.5"], "scatter_frac"),
        (["--scatter-frac", "-0.1"], "scatter_frac"),
        (["--seed", "-1"], "seed"),
        (["--linkage-cutoffs", "0.5,nan"], "NaN"),
    ],
)
def test_bad_configuration_exits_2(three_values_csv, tmp_path, capsys, extra, message):
    argv = ["run", "--input", str(three_values_csv), "--output-dir", str(tmp_path / "out")]
    assert main(argv + extra) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cutoffs", ["0.5", "0.5,0.8,1.0"])
def test_linkage_cutoffs_need_two_values(bullseye_csv, tmp_path, capsys, cutoffs):
    argv = ["run", "--input", str(bullseye_csv), "--output-dir", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--linkage-cutoffs", cutoffs])
    assert exc.value.code == EXIT_USAGE
    assert "--linkage-cutoffs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_pipeline_failure_exits_2(bullseye_csv, tmp_path, capsys):
    # every 9-means group holds fewer than 0.9 * 90 rows, so all are scatter
    argv = ["run", "--input", str(bullseye_csv), "--output-dir", str(tmp_path / "out")]
    assert main(argv + ["--truth-col", "2", "--scatter-frac", "0.9"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "fewer than 2 distinct observations remain" in err
    assert not (tmp_path / "out").exists()


# scatter removal drops the 10 singletons and leaves 1990 equal rows
ONE_DISTINCT_CORE_ROW = np.vstack([np.zeros((1990, 2)), np.arange(1, 11)[:, None] * [[50.0, -30.0]]])
# scatter removal leaves 3 distinct core rows, so kmax=3 < kstar=5 <= G=5
THREE_CORE_VALUES = np.vstack(
    [np.repeat([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]], 6, axis=0), [[100.0, 100.0], [-100.0, 80.0]]]
)


@pytest.mark.parametrize(
    "rows, extra, message",
    [
        (ONE_DISTINCT_CORE_ROW, [], "fewer than 2 distinct observations remain"),
        (
            THREE_CORE_VALUES,
            ["--G", "5", "--kstar", "5", "--scatter-frac", "0.2"],
            "known kstar=5 exceeds the largest K0=3",
        ),
    ],
    ids=["one-distinct-core-row", "kstar-above-core-kmax"],
)
def test_core_rows_that_admit_no_run_exit_2(tmp_path, capsys, rows, extra, message):
    path, out = tmp_path / "in.csv", tmp_path / "out"
    np.savetxt(path, rows, delimiter=",")
    assert main(["run", "--input", str(path), "--output-dir", str(out)] + extra) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


def two_blobs_p1() -> np.ndarray:
    rng = np.random.default_rng(0)
    return np.concatenate([rng.normal(0.0, 1.0, 30), rng.normal(8.0, 1.0, 30)])[:, None]


@pytest.mark.parametrize(
    "rows",
    [
        two_blobs_p1(),
        np.array([[0.0, 0.0], [1.0, 1.0]]),
        np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0]]),
    ],
    ids=["p1", "n2", "n3"],
)
def test_small_inputs_run(tmp_path, rows):
    path, out = tmp_path / "in.csv", tmp_path / "out"
    np.savetxt(path, rows, delimiter=",")
    assert main(["run", "--input", str(path), "--output-dir", str(out), "--B", "10"]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == sorted(ARTIFACTS)
    report = json.loads((out / "report.json").read_text())
    assert report["n"] == rows.shape[0]
    assert report["kstar"]["chosen"] == 2
    # the K0 search fits K = 1..G, also at G = 2 (n2, n3), where it pads K0 = [2]
    assert report["krzanowski"]["k"] == list(range(1, report["config"]["G"] + 1))
    if report["config"]["G"] == 2:
        assert report["k0_candidates"] == [2] and report["krzanowski"]["ratio_k"] == []


def test_constant_column_warns_under_standardize(bullseye_csv, tmp_path):
    table = np.loadtxt(bullseye_csv, delimiter=",")
    path, out = tmp_path / "const.csv", tmp_path / "out"
    np.savetxt(path, np.column_stack([table[:, :2], np.full(90, 3.0), table[:, 2]]), delimiter=",")
    argv = ["run", "--input", str(path), "--output-dir", str(out), "--truth-col", "3"]
    assert main(argv + ["--standardize", "--B", "10"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["standardize"] is True
    assert "zero-variance columns left unscaled: [2]" in report["warnings"]


def test_missing_input_exits_2(tmp_path, capsys):
    argv = ["run", "--input", str(tmp_path / "absent.csv"), "--output-dir", str(tmp_path)]
    assert main(argv) == EXIT_USAGE
    assert "input file not found" in capsys.readouterr().err


def test_parsed_defaults_match_library():
    args = build_parser().parse_args(["run", "--input", "data.csv"])
    assert config_from_args(args) == KmhConfig()


def test_every_config_field_has_a_flag():
    argv = ["run", "--input", "data.csv", "--seed", "7", "--kstar", "3", "--M", "4"]
    argv += ["--L", "2", "--B", "50", "--G", "12", "--standardize", "--scatter-frac", "0.01"]
    argv += ["--linkage-cutoffs", "0.4,0.9", "--subsample", "200", "--threads", "2"]
    config, default = config_from_args(build_parser().parse_args(argv)), KmhConfig()
    for field in dataclasses.fields(KmhConfig):
        assert getattr(config, field.name) != getattr(default, field.name), field.name


def dataset_rows(ds) -> np.ndarray:
    return np.column_stack([ds.data.values, ds.truth.labels])


@pytest.mark.parametrize(
    "argv, dataset",
    [
        (["bullseye", "--seed", "0"], lambda: gen_bullseye(seed=0)),
        (
            ["banana-spheres", "--n-banana", "50", "--n-ring-outer", "200"],
            lambda: gen_banana_spheres(n_banana=50, n_ring=200),
        ),
    ],
    ids=["bullseye", "banana-spheres"],
)
def test_gen_writes_the_generator_rows(tmp_path, argv, dataset):
    path = tmp_path / "gen.csv"
    assert main(["gen"] + argv + ["--out", str(path)]) == EXIT_OK
    written = np.loadtxt(path, delimiter=",")
    assert np.array_equal(written, dataset_rows(dataset()))


@pytest.mark.parametrize(
    "extra",
    [["--centers", "0,0;1"], ["--centers", "0,0;a,1"], ["--sizes", "10,10"]],
    ids=["ragged", "non-numeric", "count-mismatch"],
)
def test_malformed_blobs_exit_2(tmp_path, extra):
    path = tmp_path / "blobs.csv"
    try:
        code = main(["gen", "blobs", "--out", str(path)] + extra)
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_USAGE
    assert not path.exists()


def test_truth_labels_are_rounded(tmp_path):
    path = tmp_path / "near.csv"
    rows = [[0.0, 0.0, 1.0], [1.0, 0.0, 1.9999999999], [0.0, 1.0, 0.99999999999], [1.0, 1.0, 2.0]]
    path.write_text("\n".join(",".join(repr(v) for v in row) for row in rows) + "\n")
    _, truth = read_csv(str(path), truth_col=2)
    assert truth.labels.tolist() == [1, 2, 1, 2]


def test_large_non_integer_truth_label_exits_2(tmp_path, capsys):
    path, out = tmp_path / "far.csv", tmp_path / "out"
    rows = [[0.0, 0.0, 1.0], [1.0, 0.0, 100000.4], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]]
    path.write_text("\n".join(",".join(repr(v) for v in row) for row in rows) + "\n")
    argv = ["run", "--input", str(path), "--output-dir", str(out), "--truth-col", "2"]
    assert main(argv) == EXIT_USAGE
    assert "nonnegative integer labels" in capsys.readouterr().err
    assert not out.exists()


def test_read_csv_takes_the_header_from_the_first_non_blank_line(tmp_path):
    path = tmp_path / "blank_first.csv"
    path.write_text("\n  \nx,y\n0.5,1\n\n2,3\n")
    data, _ = read_csv(str(path))
    assert data.values.tolist() == [[0.5, 1.0], [2.0, 3.0]]


@pytest.mark.parametrize(
    "text, lineno",
    [("x,y\n\nu,v\n0,1\n2,3\n", 3), ("\n0,1\nx,y\n2,3\n", 3)],
    ids=["second-header", "after-data"],
)
def test_read_csv_rejects_a_non_numeric_line_past_the_header(tmp_path, text, lineno):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(InputError, match=f"line {lineno}: non-numeric field"):
        read_csv(str(path))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 12), st.integers(1, 5)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    header=st.booleans(),
)
def test_read_csv_reads_back_written_floats_bit_for_bit(values, header):
    # finite doubles of every magnitude, subnormals and -0.0 included
    lines = [",".join(FLOAT_FMT % v for v in row) for row in values]
    if header:
        lines.insert(0, ",".join(f"x{j}" for j in range(values.shape[1])))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        data, truth = read_csv(path)
    assert truth is None
    assert data.values.shape == values.shape
    assert data.values.tobytes() == values.tobytes()
