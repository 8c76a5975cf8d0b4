"""Independent correctness checks for the benchmark workloads.

Every check compares a result of casehash against a computation made here,
from the inputs and the public parameters, or against a property the method
must have. Nothing is compared with a stored copy of an earlier output.

The oracles:

* oracle_outputs: a dense numpy forward pass written from
  NetworkParams.arrays(); the sign of each output is the code bit.
* hamming_within: a Hamming filter over packed codes with np.bitwise_count.
* euclidean: distances with scipy.spatial.distance.cdist from the features.

A failed check raises CheckError with a message naming what differed.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy import sparse
from scipy.spatial.distance import cdist

# An output this close to zero may round to either sign between the batched
# and the per-case forward pass, so its bit is not checked.
SIGN_SLACK = 1e-9
# Distances that differ by less than this (relative) count as tied when the
# program and the oracle compute them in a different order.
DIST_SLACK = 1e-9


class CheckError(Exception):
    """A benchmark output disagreed with its independent check."""


def need(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# network codes


def oracle_outputs(params, cases, chunk: int = 4096) -> np.ndarray:
    """Relaxed network outputs (n, r) from a dense numpy forward pass.

    The interaction layer is 1/2 * ((X W_p^T)^2 - (X^2)(W_p^2)^T) V, every
    hidden layer a rectifier and the last layer -tanh(x / 2).
    """
    arrays = dict(params.arrays())
    w_p, v = arrays["w_p"], arrays["v"]
    n_layers = (len(arrays) - 2) // 2
    out = np.empty((len(cases), params.r))
    for start in range(0, len(cases), chunk):
        x = dense_features(cases[start:start + chunk], w_p.shape[1])
        h = 0.5 * (np.square(x @ w_p.T) - np.square(x) @ np.square(w_p).T) @ v
        for k in range(1, n_layers + 1):
            pre = h @ arrays[f"w{k}"].T + arrays[f"b{k}"]
            h = -np.tanh(pre / 2.0) if k == n_layers else np.maximum(pre, 0.0)
        out[start:start + chunk] = h
    return out


def dense_features(cases, width: int) -> np.ndarray:
    """Dense feature rows; a width one past the case dim adds a ones column."""
    x = np.zeros((len(cases), width))
    for row, case in enumerate(cases):
        x[row, list(case.features.indices)] = case.features.values
    if cases and width == cases[0].features.dim + 1:
        x[:, -1] = 1.0
    return x


def pack_signs(outputs: np.ndarray) -> np.ndarray:
    """Pack sign bits (bit m set iff output m >= 0) into uint64 words."""
    n, r = outputs.shape
    words = np.zeros((n, (r + 63) // 64), dtype=np.uint64)
    for m in range(r):
        bit = (outputs[:, m] >= 0).astype(np.uint64) << np.uint64(m % 64)
        words[:, m // 64] |= bit
    return words


def words_of(codes) -> np.ndarray:
    """Packed uint64 words of HashCode objects, one row per code."""
    return np.array([c.words for c in codes], dtype=np.uint64).reshape(len(codes), -1)


def check_codes(outputs: np.ndarray, words: np.ndarray, what: str) -> None:
    """Program codes must be the signs of the oracle outputs."""
    need(words.shape == (outputs.shape[0], (outputs.shape[1] + 63) // 64),
         f"{what}: code array shape {words.shape}")
    for m in range(outputs.shape[1]):
        got = (words[:, m // 64] >> np.uint64(m % 64)) & np.uint64(1)
        want = (outputs[:, m] >= 0).astype(np.uint64)
        bad = (got != want) & (np.abs(outputs[:, m]) >= SIGN_SLACK)
        need(not bad.any(),
             f"{what}: bit {m} differs from the oracle forward pass "
             f"for {int(bad.sum())} of {len(bad)} codes")


# retrieval


def hamming_within(codes: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Hamming distance from one packed query code to every packed code."""
    return np.bitwise_count(codes ^ query[None, :]).sum(axis=1)


def euclidean(query, cases) -> np.ndarray:
    """Euclidean distances from the query to each case, from dense features."""
    if not cases:
        return np.empty(0)
    x = dense_features([query] + list(cases), query.features.dim)
    return cdist(x[1:], x[:1])[:, 0]


class OracleStore:
    """The benchmark's own copy of a case base: ids, labels, codes, features."""

    def __init__(self, cases, codes: np.ndarray):
        order = np.argsort([c.id for c in cases], kind="stable")
        self.cases = [cases[k] for k in order]
        self.ids = np.array([c.id for c in self.cases], dtype=np.int64)
        self.labels = np.array([c.label for c in self.cases], dtype=np.int64)
        self.codes = codes[order]
        self.row_of = {int(i): k for k, i in enumerate(self.ids)}
        dim = self.cases[0].features.dim
        indptr = np.cumsum([0] + [c.features.nnz for c in self.cases])
        cols = np.fromiter(chain.from_iterable(c.features.indices for c in self.cases),
                           dtype=np.int64, count=indptr[-1])
        vals = np.fromiter(chain.from_iterable(c.features.values for c in self.cases),
                           dtype=np.float64, count=indptr[-1])
        self.features = sparse.csr_matrix((vals, cols, indptr), shape=(len(self.cases), dim))

    def distances(self, rows: np.ndarray, query) -> np.ndarray:
        q = np.zeros((1, self.features.shape[1]))
        q[0, list(query.features.indices)] = query.features.values
        return cdist(self.features[rows].toarray(), q)[:, 0]


def check_ranking(ids, cand_ids: np.ndarray, cand_dist: np.ndarray, top_n: int,
                  what: str) -> None:
    """ids must be the top_n candidates by (Euclidean distance, id)."""
    order = np.lexsort((cand_ids, cand_dist))[:top_n]
    expected = [int(i) for i in cand_ids[order]]
    if list(ids) == expected:
        return
    pos = {int(i): k for k, i in enumerate(cand_ids)}
    need(len(ids) == len(expected),
         f"{what}: {len(ids)} ids returned, expected {len(expected)}")
    need(len(set(ids)) == len(ids), f"{what}: duplicate ids {ids}")
    need(all(int(i) in pos for i in ids), f"{what}: an id outside the candidates")
    got_d = cand_dist[[pos[int(i)] for i in ids]]
    want_d = cand_dist[order]
    need(np.allclose(got_d, want_d, rtol=DIST_SLACK, atol=DIST_SLACK),
         f"{what}: returned {list(ids)}, exact top-{top_n} is {expected}")
    for k in range(len(ids) - 1):
        need(got_d[k] != got_d[k + 1] or ids[k] < ids[k + 1],
             f"{what}: equal distances not in id order: {list(ids)}")


def check_retrieval(result, store: OracleStore, query, query_code: np.ndarray,
                    top_n: int, max_radius: int, candidates=None, what: str = "") -> None:
    """A RetrievalResult against the Hamming filter and the exact rerank.

    radius_used must be the smallest radius whose ball holds top_n codes, or
    max_radius; n_candidates must be the size of that ball; when given, the
    program's candidate set must equal it; the ids must be its exact top_n.
    """
    what = what or f"query {query.id}"
    dist_h = hamming_within(store.codes, query_code)
    radius = result.radius_used
    need(0 <= radius <= max_radius, f"{what}: radius {radius} out of range")
    in_ball = dist_h <= radius
    need(result.n_candidates == int(in_ball.sum()),
         f"{what}: {result.n_candidates} candidates, the Hamming filter at "
         f"radius {radius} holds {int(in_ball.sum())}")
    if radius > 0:
        need(int((dist_h < radius).sum()) < top_n,
             f"{what}: radius {radius - 1} already reached top_n")
    need(int(in_ball.sum()) >= top_n or radius == max_radius,
         f"{what}: stopped at radius {radius} below top_n")
    rows = np.flatnonzero(in_ball)
    if candidates is not None:
        need(set(int(i) for i in candidates) == set(store.ids[rows].tolist()),
             f"{what}: candidate set differs from the Hamming filter")
    check_ranking(result.ids, store.ids[rows], store.distances(rows, query), top_n, what)


# reuse


def check_vote(label, ids, labels: dict, dists, what: str) -> None:
    """The voted label must be the majority of the returned ids.

    Most votes win, then the smaller summed distance, then the smaller label.
    Summed distances within DIST_SLACK of the best count as tied, since the
    program and the oracle may add them in another order.
    """
    if len(ids) == 0:
        need(label is None, f"{what}: voted {label} with nothing retrieved")
        return
    votes: dict[int, int] = {}
    dsum: dict[int, float] = {}
    for cid, d in zip(ids, dists):
        lab = labels[int(cid)]
        votes[lab] = votes.get(lab, 0) + 1
        dsum[lab] = dsum.get(lab, 0.0) + float(d)
    best = sorted(votes, key=lambda l: (-votes[l], dsum[l], l))[0]
    near = {l for l in votes if votes[l] == votes[best]
            and dsum[l] != dsum[best]
            and abs(dsum[l] - dsum[best]) <= DIST_SLACK * (1.0 + dsum[best])}
    need(label in near | {best},
         f"{what}: voted {label}, majority of the returned ids is {best}")


def check_stream_counts(n_stored: int, n_initial: int, n_solves: int, n_updates: int,
                        n_u: int) -> None:
    """Each retained solve adds one case; every n_u retentions update once."""
    need(n_stored == n_initial + n_solves,
         f"index holds {n_stored} cases after {n_solves} retained solves on {n_initial}")
    need(n_updates == n_solves // n_u,
         f"{n_updates} updates after {n_solves} solves at n_u={n_u}")


# persistence


def check_roundtrip(loaded, cases, words: np.ndarray) -> None:
    """The loaded index must hold exactly the saved cases and codes, id for id."""
    ids = [c.id for c in cases]
    need(loaded.ids() == sorted(ids), "loaded index holds other ids than were saved")
    for case, row in zip(cases, words):
        got = loaded.case(case.id)
        need(got.label == case.label, f"case {case.id}: label changed on load")
        need(got.features == case.features, f"case {case.id}: features changed on load")
        need(loaded.code(case.id).words == tuple(int(w) for w in row),
             f"case {case.id}: code changed on load")


# quality


def average_precision(ranked, relevant: set, n: int) -> float:
    denom = min(len(relevant), n)
    hits, total = 0, 0.0
    for rank, cid in enumerate(ranked[:n], start=1):
        if cid in relevant:
            hits += 1
            total += hits / rank
    return total / denom if denom else 0.0


def check_training(history, epochs: int, stopped_early: bool, diverged: bool) -> None:
    need(not diverged, "training diverged")
    need(not stopped_early and len(history) == epochs,
         f"training ran {len(history)} of {epochs} epochs")
    need(history[-1].objective < history[0].objective,
         f"objective did not fall: {history[0].objective} -> {history[-1].objective}")


def check_floor(name: str, value: float, floor: float) -> None:
    need(value >= floor, f"{name} {value:.4f} is below its floor {floor}")
