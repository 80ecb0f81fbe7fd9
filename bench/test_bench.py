"""Tests of the benchmark itself: seeded inputs, span arithmetic, the layer
wrappers and the output check. Run with `python -m pytest bench`."""

import importlib
import os
import sys
import threading

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from kmh.core import Partition, adjusted_rand_index  # noqa: E402

TINY = workloads.Workload(
    "tiny-blobs-dup",
    lambda seed: workloads.gen_blobs_dup(seed, blobs=3, per_blob=30, dims=3, duplicates=20),
    threads=1,
    ari_floor=None,
)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_csv(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    workloads.set_up(workload, 7, str(paths[0]))
    workloads.set_up(workload, 7, str(paths[1]))
    workloads.set_up(workload, 8, str(paths[2]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_blobs_dup_shape_and_duplicates():
    ds = workloads.gen_blobs_dup(0)
    assert ds.data.values.shape == (1196, 5)
    assert np.unique(ds.data.values, axis=0).shape[0] <= 896
    assert sorted(set(ds.truth.labels.tolist())) == list(range(1, 9))


def _span(i, start, end, parent, name="x"):
    return spans.Span(i, name, start, end, parent, thread=0)


def test_self_times_nested_spans_sum_to_root():
    tree = [
        _span(0, 0.0, 10.0, None),
        _span(1, 1.0, 4.0, 0),
        _span(2, 2.0, 3.0, 1),
        _span(3, 5.0, 9.0, 0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_times_count_parallel_children_once():
    tree = [_span(0, 0.0, 10.0, None), _span(1, 2.0, 6.0, 0), _span(2, 4.0, 8.0, 0)]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(4.0)  # children cover 2..8 together
    assert selfs[1] + selfs[2] == pytest.approx(8.0)


def test_tracer_parents_across_threads():
    tracer = spans.Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass

        def work():
            with tracer.span("worker"):
                pass

        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["root"].parent is None
    assert by_name["child"].parent == by_name["root"].id
    assert by_name["grandchild"].parent == by_name["child"].id
    assert by_name["worker"].parent == by_name["root"].id
    assert all(s.end >= s.start for s in tracer.spans)


def _bindings():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _, _ in spans.LAYERS
    }


def test_instrument_restores_originals():
    before = _bindings()
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        during = _bindings()
        assert all(during[key] is not fn for key, fn in before.items())
    assert _bindings() == before
    with pytest.raises(RuntimeError):
        with spans.instrument(tracer):
            raise RuntimeError("boom")
    assert all(_bindings()[key] is fn for key, fn in before.items())


def test_adjusted_rand_matches_library():
    rng = np.random.default_rng(3)
    a, b = rng.integers(0, 4, size=200), rng.integers(0, 5, size=200)
    expected = adjusted_rand_index(Partition(a), Partition(b))
    assert run.adjusted_rand(a, b) == pytest.approx(expected, abs=1e-12)


def test_traced_run_counts_and_same_labels_across_threads(tmp_path):
    inp = run.prepare(TINY, 0, str(tmp_path))
    serial = run.run_op(inp, TINY.ari_floor)
    assert serial.error == ""
    argv = list(inp.argv)
    argv[argv.index("--threads") + 1] = "2"
    threaded = run.run_op(run.Input(0, argv, inp.truth, inp.out_dir), TINY.ari_floor)
    assert threaded.error == ""
    assert threaded.labels_sha256 == serial.labels_sha256

    tracer = spans.Tracer()
    with spans.instrument(tracer):
        traced = run.run_op(inp, TINY.ari_floor, tracer=tracer)
    assert traced.labels_sha256 == serial.labels_sha256
    metrics = run.layer_metrics(tracer.spans, serial.wall_s, traced.timings)
    assert metrics["cli.main.calls"][0] == 1
    assert metrics["kmeans.lloyd.calls"][0] > 0
    assert metrics["kmeans.lloyd.sweeps"][0] >= metrics["kmeans.lloyd.calls"][0]
    assert metrics["trace.self_sum_s"][0] == pytest.approx(metrics["trace.wall_s"][0], abs=1e-6)


def test_output_check_flags_missing_artifact(tmp_path):
    inp = run.prepare(TINY, 1, str(tmp_path))
    assert run.run_op(inp, TINY.ari_floor).error == ""
    os.remove(os.path.join(inp.out_dir, "heatmap.pgm"))
    op = run.check_outputs(run.Op(1, 0.0, 0.0, ""), inp.out_dir, inp.truth, TINY.ari_floor)
    assert "heatmap.pgm" in op.error
