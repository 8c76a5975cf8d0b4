"""Spans around the calls that cross casehash's module boundaries.

Tracer.install() replaces a fixed set of casehash functions and methods with
wrappers that open a span for each call; uninstall() puts the originals back.
Spans are kept in memory and written out as JSON lines when the run ends.
A span's self time is its duration minus the durations of its child spans.
layer_metrics() turns the spans into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

from casehash import cbr, index, network, sparse, training


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs = None

    @property
    def seconds(self) -> float:
        return (self.end - self.start) / 1e9


def _retrieval_attrs(args, result):
    return {"gather_us": result.gather_us, "rerank_us": result.rerank_us,
            "candidates": result.n_candidates, "radius": result.radius_used,
            "returned": len(result.ids)}


# (owner, attribute, span name, attrs taken from (args, result))
TARGETS = [
    (training, "sample_pairs", "training.sample_pairs",
     lambda args, res: {"pairs": len(res)}),
    (training, "batch_objective", "training.validation", None),
    (training.OptimizerState, "apply", "optimizer", None),
    (network.NetworkParams, "code", "network.code", None),
    (network.NetworkParams, "code_batch", "network.code_batch", None),
    # index.py binds its own name for cases_to_csr; network.py imports it
    # from sparse at call time
    (sparse, "cases_to_csr", "sparse.cases_to_csr", None),
    (index, "cases_to_csr", "sparse.cases_to_csr", None),
    (index.HashIndex, "insert", "index.insert", None),
    (index.HashIndex, "retrieve", "index.retrieve", _retrieval_attrs),
    (index.HashIndex, "replace_codes", "index.replace_codes", None),
    (index.HashIndex, "linear_scan", "index.linear_scan", None),
    (cbr, "adaptive_objective_and_grad", "cbr.update.grad",
     lambda args, res: {"pairs": len(args[0])}),
    (cbr.CbrEngine, "update_model", "cbr.update", None),
    (cbr.CbrEngine, "suggest", "cbr.suggest",
     lambda args, res: {"reuse_us": res.reuse_us}),
    (cbr.CbrEngine, "solve", "cbr.solve",
     lambda args, res: {"retain_us": res.retain_us, "updated": res.updated}),
]


class NullTracer:
    """Stands in for Tracer in untraced runs; records nothing."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1].id if self._open else None
        sp = Span(len(self.spans), parent, name, time.perf_counter_ns())
        self.spans.append(sp)
        self._open.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter_ns()
            self._open.pop()

    def _wrap(self, fn, name, attrs, is_method):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if attrs is not None:
                sp.attrs = attrs(args[1:] if is_method else args, result)
            return result
        return traced

    def install(self) -> None:
        for owner, attr, name, attrs in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(original, name, attrs, isinstance(owner, type)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """One JSON object per span; request is the id of its root span."""
        roots: dict[int, int] = {}
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                root = sp.id if sp.parent is None else roots[sp.parent]
                roots[sp.id] = root
                fh.write(json.dumps({"id": sp.id, "parent": sp.parent, "request": root,
                                     "name": sp.name, "start_ns": sp.start,
                                     "end_ns": sp.end, "attrs": sp.attrs}) + "\n")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans, extra: dict) -> dict:
    """Per-layer metrics as {name: (value, unit)}.

    extra holds the index's bucket counts and, in retrievals_in, the span
    name whose retrievals the index metrics cover (None for all of them).
    """
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)

    def kids(sp, name):
        return [c for c in children.get(sp.id, []) if c.name == name]

    def self_seconds(sp):
        return sp.seconds - sum(c.seconds for c in children.get(sp.id, []))

    def under(sp, name):
        while sp.parent is not None:
            sp = spans[sp.parent]
            if sp.name == name:
                return True
        return False

    out = {}
    trains = by_name.get("training.train", [])
    n_train = max(len(trains), 1)
    for what, name in (("sample_pairs", "training.sample_pairs"),
                       ("optimizer", "optimizer"), ("validation", "training.validation")):
        total = sum(c.seconds for t in trains for c in kids(t, name))
        out[f"training.{what}.s"] = (total / n_train, "s")
    out["training.grad.s"] = (sum(self_seconds(t) for t in trains) / n_train, "s")
    steps = sum(len(kids(t, "optimizer")) for t in trains)
    out["training.steps"] = (steps / n_train, "count")
    sampled = [c.attrs["pairs"] for t in trains for c in kids(t, "training.sample_pairs")]
    out["training.pairs_per_step"] = (sum(sampled) / max(len(sampled), 1), "count")

    codes = by_name.get("network.code", [])
    solves = by_name.get("cbr.solve", [])
    out["network.code.us"] = (_median([sp.seconds * 1e6 for sp in codes]), "us")
    in_solve = sum(1 for sp in codes if under(sp, "cbr.solve"))
    out["network.code.calls_per_solve"] = (in_solve / max(len(solves), 1), "count")
    out["network.code_batch.s"] = (
        _median([sp.seconds for sp in by_name.get("network.code_batch", [])]), "s")
    out["sparse.cases_to_csr.s"] = (
        _median([sp.seconds for sp in by_name.get("sparse.cases_to_csr", [])]), "s")

    # retrievals of the workload's main phase: the solves on a streaming one
    got = [sp.attrs for sp in by_name.get("index.retrieve", [])
           if extra["retrievals_in"] is None or under(sp, extra["retrievals_in"])]
    out["index.gather.us"] = (_median([a["gather_us"] for a in got]), "us")
    out["index.rerank.us"] = (_median([a["rerank_us"] for a in got]), "us")
    out["index.candidates"] = (_median([a["candidates"] for a in got]), "count")
    out["index.useful_ratio"] = (sum(a["returned"] for a in got)
                                 / max(sum(a["candidates"] for a in got), 1), "ratio")
    out["index.radius_used"] = (sum(a["radius"] for a in got) / max(len(got), 1), "count")
    out["index.buckets"] = (extra["buckets"], "count")
    out["index.largest_bucket"] = (extra["largest_bucket"], "count")
    out["index.insert.us"] = (
        _median([sp.seconds * 1e6 for sp in by_name.get("index.insert", [])]), "us")
    out["index.replace_codes.s"] = (
        _median([sp.seconds for sp in by_name.get("index.replace_codes", [])]), "s")
    out["index.linear_scan.us"] = (
        _median([sp.seconds * 1e6 for sp in by_name.get("index.linear_scan", [])]), "us")

    out["cbr.reuse.us"] = (
        _median([sp.attrs["reuse_us"] for sp in by_name.get("cbr.suggest", [])]), "us")
    out["cbr.retain.us"] = (
        _median([sp.attrs["retain_us"] for sp in solves if not sp.attrs["updated"]]), "us")
    updates = by_name.get("cbr.update", [])
    out["cbr.update.grad.s"] = (
        _median([sum(c.seconds for c in kids(u, "cbr.update.grad")) for u in updates]), "s")
    out["cbr.update.pairs"] = (
        _median([kids(u, "cbr.update.grad")[0].attrs["pairs"] for u in updates
                 if kids(u, "cbr.update.grad")]), "count")
    out["cbr.update.steps"] = (_median([len(kids(u, "optimizer")) for u in updates]), "count")
    return out
