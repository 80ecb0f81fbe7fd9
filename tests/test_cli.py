"""`kmh run` end to end through `cli.main`: the artifact set, exit codes for
bad input, and the defaults it shares with the library."""

import json

import numpy as np
import pytest

from kmh.cli import EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, build_parser, config_from_args, main
from kmh.consensus import DEFAULT_CV_CUT, DEFAULT_MEAN_CUT
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


def test_pipeline_failure_exits_1(bullseye_csv, tmp_path, capsys):
    # every 9-means group holds fewer than 0.9 * 90 rows, so all are scatter
    argv = ["run", "--input", str(bullseye_csv), "--output-dir", str(tmp_path / "out")]
    assert main(argv + ["--truth-col", "2", "--scatter-frac", "0.9"]) == EXIT_INTERNAL
    assert "fewer than 2 observations remain" in capsys.readouterr().err


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
    assert args.linkage_cutoffs == (DEFAULT_MEAN_CUT, DEFAULT_CV_CUT)
