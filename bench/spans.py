"""Span tracing of the kmh layers, applied from outside the library.

`instrument(tracer)` replaces each traced layer function at the binding its
caller looks it up through (e.g. `kmh.pipeline.estimate_kstar`, which
`run_kmh` calls, or `kmh.kmeans.lloyd`, which `best_of` calls) with a wrapper
that records a span and counts read from the call's arguments and return
value, and puts the originals back on exit. Spans stay in memory until the
benchmark writes them out.
"""

import contextlib
import functools
import importlib
import inspect
import threading
import time
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans. A span's parent is the innermost span open in its own
    thread or, in a worker thread with none open, the innermost span open in
    the thread that created the tracer (the one that handed out the work)."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stacks: dict[int, list[Span]] = {}
        self._lock = threading.Lock()
        self._owner = threading.get_ident()

    @contextlib.contextmanager
    def span(self, name: str):
        me = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(me, [])
            outer = stack or self._stacks.get(self._owner, [])
            parent = outer[-1].id if outer else None
            current = Span(len(self.spans), name, 0.0, 0.0, parent, me)
            self.spans.append(current)
            stack.append(current)
        current.start = time.perf_counter()
        try:
            yield current
        finally:
            current.end = time.perf_counter()
            with self._lock:
                stack.pop()

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its child
    spans cover (children running in parallel threads are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c.start, s.start), min(c.end, s.end))
            for c in children.get(s.id, [])
            if c.end > s.start and c.start < s.end
        ]
        out[s.id] = (s.end - s.start) - _union_length(covered)
    return out


# Counters read from a traced call: (bound arguments, return value) -> counts.
def _lloyd_counts(args, result):
    from_args = args.arguments
    n, p = from_args["data"].n, from_args["data"].p
    sweeps = result.iterations
    return {
        "sweeps": sweeps,
        "capped": int(sweeps >= from_args["max_iter"]),
        "assign_flop": 2 * n * from_args["K"] * p * sweeps,
    }


def _scatter_counts(args, result):
    return {"removed": int(result.scatter_indices.size)}


def _pair_counts(args, result):
    k = len(args.arguments["entities"])
    return {"pairs": k * (k - 1) // 2}


def _merge_counts(args, result):
    trace, _ = result
    return {"merges": len(trace.merges)}


def _kstar_counts(args, result):
    from_args = args.arguments
    m, n_parts = from_args["subsample"], len(from_args["partitions"])
    replicates = len(result.per_replicate)
    return {
        "replicates": replicates,
        "psi_cells": replicates * m * m * n_parts,
        "kstar_votes": int(round(result.frequencies[result.median_kstar] * replicates)),
    }


# (module, attribute, span name, counter). Names are "<layer module>.<function>".
LAYERS = [
    ("kmh.cli", "read_csv", "cli.read_csv", None),
    ("kmh.cli", "run_kmh", "pipeline.run_kmh", None),
    ("kmh.cli", "write_labels", "cli.write_labels", None),
    ("kmh.cli", "write_similarity", "cli.write_similarity", None),
    ("kmh.cli", "write_heatmap", "cli.write_heatmap", None),
    ("kmh.cli", "adjusted_rand_index", "core.adjusted_rand_index", None),
    ("kmh.pipeline", "remove_scatter", "scatter.remove_scatter", _scatter_counts),
    ("kmh.pipeline", "krzanowski_candidates", "kmeans.krzanowski_candidates", None),
    ("kmh.kmeans", "lloyd", "kmeans.lloyd", _lloyd_counts),
    ("kmh.pipeline", "fit_entity", "gaussdist.fit_entity", None),
    ("kmh.pipeline", "entity_distance_matrix", "gaussdist.entity_distance_matrix", _pair_counts),
    ("kmh.pipeline", "single_linkage", "hierarchy.single_linkage", _merge_counts),
    ("kmh.pipeline", "change_points", "hierarchy.change_points", None),
    ("kmh.pipeline", "cut_to_partition", "hierarchy.cut_to_partition", None),
    ("kmh.pipeline", "estimate_kstar", "consensus.estimate_kstar", _kstar_counts),
    ("kmh.pipeline", "mean_ari_scores", "consensus.mean_ari_scores", None),
    ("kmh.consensus", "adjusted_rand_index", "core.adjusted_rand_index", None),
]
ROOT_SPAN = "cli.main"
SPAN_NAMES = [ROOT_SPAN] + list(dict.fromkeys(name for _, _, name, _ in LAYERS))


def _wrap(tracer: Tracer, fn, name: str, counter):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.counts = counter(bound, result)
        return result

    return traced


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route every traced layer call through `tracer` while the block runs.
    A layer function missing from its module is left untraced."""
    saved = []
    try:
        for module_name, attr, name, counter in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, original, name, counter))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
