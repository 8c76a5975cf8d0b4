"""Quality metrics and benchmarks for retrieval and suggestion.

Classification quality uses accuracy and rank-based AUC (average ranks on
ties; the multiclass value averages pairwise AUCs over class pairs present
in the data). Retrieval quality uses precision@N with a fixed denominator
and average precision@N normalized by min(|relevant|, N). bench() times
bucketed retrieval against a full linear scan over identical queries.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np
from scipy.stats import rankdata

from .cbr import CbrEngine
from .index import HashIndex


def accuracy(y_true, y_pred) -> float:
    """Fraction of exact label matches; a None prediction never matches."""
    if len(y_true) != len(y_pred):
        raise ValueError("length mismatch")
    if not y_true:
        raise ValueError("no instances")
    hits = sum(1 for t, p in zip(y_true, y_pred) if p is not None and t == p)
    return hits / len(y_true)


def auc_binary(y_true, scores) -> float:
    """Probability a positive outranks a negative, ties counted half.

    Computed from rank sums: (R_pos - n_pos(n_pos+1)/2) / (n_pos * n_neg),
    with average ranks so tied scores contribute 0.5.
    """
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=float)
    if y.shape != s.shape:
        raise ValueError("length mismatch")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need both classes for AUC")
    ranks = rankdata(s)
    r_pos = float(ranks[y == 1].sum())
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def auc_multiclass(y_true, score_maps, labels=None) -> float:
    """Mean pairwise AUC over ordered class pairs (each direction once).

    score_maps holds one {label: score} dict per instance; absent entries
    score 0. Class pairs with either class missing from y_true are skipped
    and the normalizer shrinks to the pairs actually evaluated.
    """
    if len(y_true) != len(score_maps):
        raise ValueError("length mismatch")
    if labels is None:
        labels = set(y_true)
        for m in score_maps:
            labels.update(m)
    labels = sorted(labels)
    if len(labels) < 2:
        raise ValueError("need at least 2 labels")

    y = np.asarray(y_true)
    total, n_pairs = 0.0, 0
    for a_i in range(len(labels)):
        for b_i in range(a_i + 1, len(labels)):
            a, b = labels[a_i], labels[b_i]
            mask = (y == a) | (y == b)
            if not ((y == a).any() and (y == b).any()):
                continue
            sub_y = y[mask]
            sub_maps = [m for m, keep in zip(score_maps, mask) if keep]
            s_a = np.array([m.get(a, 0.0) for m in sub_maps])
            s_b = np.array([m.get(b, 0.0) for m in sub_maps])
            a_ab = auc_binary((sub_y == a).astype(int), s_a)
            a_ba = auc_binary((sub_y == b).astype(int), s_b)
            total += (a_ab + a_ba) / 2.0
            n_pairs += 1
    if n_pairs == 0:
        raise ValueError("no class pair present in y_true")
    return total / n_pairs


def prec_at_n(relevant, retrieved, n: int) -> float:
    """|relevant ∩ top-n retrieved| / n; the denominator stays n regardless."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return len(set(retrieved[:n]) & set(relevant)) / n


def ap_at_n(relevant, retrieved, n: int) -> float:
    """Average precision over the top n, normalized by min(|relevant|, n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    relevant = set(relevant)
    denom = min(len(relevant), n)
    if denom == 0:
        return 0.0
    hits, total = 0, 0.0
    for rank, rid in enumerate(retrieved[:n], start=1):
        if rid in relevant:
            hits += 1
            total += hits / rank
    return total / denom


def map_at_n(relevants, retrieveds, n: int) -> float:
    """Mean ap_at_n over queries (paired lists of relevant sets / rankings)."""
    if len(relevants) != len(retrieveds):
        raise ValueError("length mismatch")
    if not relevants:
        raise ValueError("no queries")
    return float(np.mean([ap_at_n(r, h, n) for r, h in zip(relevants, retrieveds)]))


@dataclass
class MetricReport:
    """One evaluation run; serializable as a JSON object."""

    n_queries: int
    top_n: int
    accuracy: float
    auc: float | None
    map_at_n: float
    prec_at_n: float
    mean_hash_us: float
    mean_retrieve_us: float
    mean_reuse_us: float

    def as_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def evaluate(index: HashIndex, coder, queries, top_n: int = 10,
             max_radius: int = 2) -> MetricReport:
    """Suggest a label for every query against a fixed index; no retention.

    Relevance for the retrieval metrics is sharing the query's label among
    stored cases. AUC is reported as None when the query labels are all
    identical (it is undefined there).
    """
    if not queries:
        raise ValueError("no queries")
    engine = CbrEngine(index, coder, top_n=top_n, max_radius=max_radius,
                       no_update=True)
    by_label: dict[int, set] = {}
    ids = index.ids()
    for cid, lab in zip(ids, index.labels(ids).tolist()):
        by_label.setdefault(lab, set()).add(cid)

    y_true, y_pred, score_maps = [], [], []
    relevants, retrieveds = [], []
    timings = np.zeros(3)
    for query in queries:
        sug = engine.suggest(query)
        y_true.append(query.label)
        y_pred.append(sug.label)
        score_maps.append(sug.scores)
        relevants.append(by_label.get(query.label, set()))
        retrieveds.append(sug.retrieval.ids)
        timings += (sug.hash_us, sug.retrieve_us, sug.reuse_us)

    try:
        auc = auc_multiclass(y_true, score_maps)
    except ValueError:
        auc = None
    timings /= len(queries)
    return MetricReport(
        n_queries=len(queries),
        top_n=top_n,
        accuracy=accuracy(y_true, y_pred),
        auc=auc,
        map_at_n=map_at_n(relevants, retrieveds, top_n),
        prec_at_n=float(np.mean([prec_at_n(r, h, top_n)
                                 for r, h in zip(relevants, retrieveds)])),
        mean_hash_us=float(timings[0]),
        mean_retrieve_us=float(timings[1]),
        mean_reuse_us=float(timings[2]),
    )


@dataclass
class BenchResult:
    """Latency comparison: bucketed retrieval vs linear scan, same queries."""

    n_queries: int
    n_cases: int
    top_n: int
    hashed_mean_us: float
    hashed_p50_us: float
    linear_mean_us: float
    linear_p50_us: float
    mean_candidates: float

    @property
    def ratio_mean(self) -> float:
        return self.hashed_mean_us / self.linear_mean_us

    @property
    def ratio_p50(self) -> float:
        return self.hashed_p50_us / self.linear_p50_us

    def as_dict(self) -> dict:
        d = asdict(self)
        d["ratio_mean"] = self.ratio_mean
        d["ratio_p50"] = self.ratio_p50
        return d

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def bench(index: HashIndex, coder, queries, top_n: int = 10,
          max_radius: int = 2) -> BenchResult:
    """Per-query wall time of code+retrieve against a full linear scan.

    A built or loaded index already holds its feature snapshot, and one
    untimed query rebuilds a snapshot a write dropped, so neither side is
    charged for one-off set-up.
    """
    if not queries:
        raise ValueError("no queries")
    warm = queries[0]
    index.retrieve(warm, coder.code(warm), top_n, max_radius=max_radius)

    hashed = np.empty(len(queries))
    linear = np.empty(len(queries))
    candidates = np.empty(len(queries))
    for k, query in enumerate(queries):
        t0 = time.perf_counter_ns()
        code = coder.code(query)
        res = index.retrieve(query, code, top_n, max_radius=max_radius)
        hashed[k] = (time.perf_counter_ns() - t0) / 1e3
        candidates[k] = res.n_candidates

        t1 = time.perf_counter_ns()
        index.linear_scan(query, top_n)
        linear[k] = (time.perf_counter_ns() - t1) / 1e3

    return BenchResult(
        n_queries=len(queries),
        n_cases=len(index),
        top_n=top_n,
        hashed_mean_us=float(hashed.mean()),
        hashed_p50_us=float(np.median(hashed)),
        linear_mean_us=float(linear.mean()),
        linear_p50_us=float(np.median(linear)),
        mean_candidates=float(candidates.mean()),
    )
