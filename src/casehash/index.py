"""Hamming-bucket index over binary case codes with exact rerank.

Cases are bucketed by their packed hash code. A query gathers candidates by
expanding the Hamming ball around its code one complete radius level at a
time (0, then 1, then 2 by default), stopping as soon as enough candidates
exist, and reranks the survivors by Euclidean distance on the original
feature vectors. linear_scan ranks every stored case with the same distance
kernel and serves as the retrieval oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .network import CHECKPOINT_VERSION, HashCode
from .sparse import DataFormatError, SparseCase, SparseVector, cases_to_csr

INDEX_MAGIC = b"CHIX"


def hamming_distance(a: HashCode, b: HashCode) -> int:
    """Number of differing bits; equals (r - <a, b>) / 2 on sign vectors."""
    if a.r != b.r:
        raise ValueError("codes have different widths")
    return sum((wa ^ wb).bit_count() for wa, wb in zip(a.words, b.words))


def hamming_ball(code: HashCode, radius: int):
    """Yield every code within the given Hamming radius, nearest level first."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    yield code
    for t in range(1, radius + 1):
        for bits in combinations(range(code.r), t):
            yield code.flip(*bits)


@dataclass
class RetrievalResult:
    """Ranked ids with distances plus gathering diagnostics and phase timings."""

    ids: list[int]
    distances: np.ndarray
    n_candidates: int
    radius_used: int
    truncated: bool = False
    gather_us: float = 0.0
    rerank_us: float = 0.0


class HashIndex:
    """Mutable id -> (case, code) store bucketed by code for sublinear lookup."""

    def __init__(self, r: int, dim: int):
        if r < 1 or dim < 1:
            raise ValueError("r and dim must be positive")
        self.r = r
        self.dim = dim
        self._cases: dict[int, SparseCase] = {}
        self._codes: dict[int, HashCode] = {}
        # buckets are keyed by the raw packed words so probing skips
        # HashCode construction on the hot path
        self._buckets: dict[tuple[int, ...], list[int]] = {}
        self._bit_masks = [(m // 64, 1 << (m % 64)) for m in range(r)]
        self._snapshot = None  # (ids array, csr matrix, row squared norms)

    def __len__(self) -> int:
        return len(self._cases)

    def __contains__(self, case_id: int) -> bool:
        return case_id in self._cases

    def case(self, case_id: int) -> SparseCase:
        return self._cases[case_id]

    def code(self, case_id: int) -> HashCode:
        return self._codes[case_id]

    def ids(self) -> list[int]:
        return sorted(self._cases)

    @property
    def n_buckets(self) -> int:
        return len(self._buckets)

    @classmethod
    def build(cls, cases, coder) -> "HashIndex":
        """Index a case collection; coder must provide code_batch(cases)."""
        cases = list(cases)
        if not cases:
            raise ValueError("cannot build an index from zero cases")
        idx = cls(r=coder.r, dim=cases[0].features.dim)
        for case, code in zip(cases, coder.code_batch(cases)):
            idx.insert(case, code)
        return idx

    def insert(self, case: SparseCase, code: HashCode) -> None:
        if case.id in self._cases:
            raise KeyError(f"duplicate case id {case.id}")
        if case.features.dim != self.dim:
            raise DataFormatError(
                f"case dim {case.features.dim} does not match index dim {self.dim}")
        if code.r != self.r:
            raise ValueError(f"code width {code.r} does not match index width {self.r}")
        self._cases[case.id] = case
        self._codes[case.id] = code
        self._buckets.setdefault(code.words, []).append(case.id)
        self._snapshot = None

    def remove(self, case_id: int) -> SparseCase:
        if case_id not in self._cases:
            raise KeyError(f"unknown case id {case_id}")
        case = self._cases.pop(case_id)
        code = self._codes.pop(case_id)
        bucket = self._buckets[code.words]
        bucket.remove(case_id)
        if not bucket:
            del self._buckets[code.words]
        self._snapshot = None
        return case

    def replace_codes(self, coder) -> None:
        """Recompute every stored code and rebuild the buckets in place."""
        ids = self.ids()
        cases = [self._cases[i] for i in ids]
        codes = coder.code_batch(cases)
        self._codes = dict(zip(ids, codes))
        self._buckets = {}
        for cid, code in zip(ids, codes):
            self._buckets.setdefault(code.words, []).append(cid)
        # feature matrix is unchanged; keep any existing snapshot

    def _level_keys(self, words: tuple[int, ...], t: int):
        """Bucket keys at exactly Hamming distance t from the given words."""
        if t == 0:
            yield words
            return
        masks = self._bit_masks
        if len(words) == 1:
            w0 = words[0]
            for bits in combinations(range(self.r), t):
                x = w0
                for m in bits:
                    x ^= masks[m][1]
                yield (x,)
            return
        for bits in combinations(range(self.r), t):
            mut = list(words)
            for m in bits:
                wi, mask = masks[m]
                mut[wi] ^= mask
            yield tuple(mut)

    def candidates_within(self, code: HashCode, radius: int) -> set[int]:
        """Ids of stored cases whose codes lie within the Hamming radius."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        found: set[int] = set()
        for t in range(radius + 1):
            for key in self._level_keys(code.words, t):
                bucket = self._buckets.get(key)
                if bucket:
                    found.update(bucket)
        return found

    def _matrix(self):
        if self._snapshot is None:
            ids = np.array(self.ids(), dtype=np.int64)
            x = cases_to_csr([self._cases[int(i)] for i in ids], self.dim)
            self._snapshot = (ids, x, np.asarray(x.multiply(x).sum(axis=1)).ravel())
        return self._snapshot

    def _distances_to(self, query: SparseCase, rows: np.ndarray) -> np.ndarray:
        """Euclidean distance from the query to the given snapshot rows."""
        ids, x, row_sq = self._matrix()
        q = np.zeros(self.dim)
        q[list(query.features.indices)] = query.features.values
        sub = x[rows] if rows is not None else x
        sq = (row_sq[rows] if rows is not None else row_sq) - 2.0 * (sub @ q) + q @ q
        return np.sqrt(np.maximum(sq, 0.0))

    @staticmethod
    def _rank(ids: np.ndarray, dists: np.ndarray, top_n: int):
        order = np.lexsort((ids, dists))[:top_n]
        return [int(i) for i in ids[order]], dists[order]

    def retrieve(self, query: SparseCase, code: HashCode, top_n: int,
                 max_radius: int = 2, max_candidates: int | None = None) -> RetrievalResult:
        """Gather by growing Hamming radius, then rerank by feature distance.

        Levels are always expanded whole, so the candidate set at the final
        radius matches a brute-force Hamming filter exactly. Expansion stops
        once top_n candidates exist, the radius is exhausted, or a completed
        level has pushed the count past max_candidates (sets truncated).
        """
        if query.features.dim != self.dim:
            raise DataFormatError(
                f"query dim {query.features.dim} does not match index dim {self.dim}")
        if top_n < 1:
            raise ValueError("top_n must be >= 1")

        t0 = time.perf_counter_ns()
        found: set[int] = set()
        radius_used = 0
        truncated = False
        for t in range(max_radius + 1):
            radius_used = t
            for key in self._level_keys(code.words, t):
                bucket = self._buckets.get(key)
                if bucket:
                    found.update(bucket)
            if len(found) >= top_n:
                break
            if max_candidates is not None and len(found) >= max_candidates:
                truncated = True
                break
        gather_us = (time.perf_counter_ns() - t0) / 1e3

        if not found:
            return RetrievalResult(ids=[], distances=np.empty(0), n_candidates=0,
                                   radius_used=radius_used, truncated=truncated,
                                   gather_us=gather_us)

        t1 = time.perf_counter_ns()
        snap_ids, _, _ = self._matrix()
        cand = np.array(sorted(found), dtype=np.int64)
        rows = np.searchsorted(snap_ids, cand)
        dists = self._distances_to(query, rows)
        ranked_ids, ranked_d = self._rank(cand, dists, top_n)
        rerank_us = (time.perf_counter_ns() - t1) / 1e3
        return RetrievalResult(ids=ranked_ids, distances=ranked_d,
                               n_candidates=len(found), radius_used=radius_used,
                               truncated=truncated, gather_us=gather_us,
                               rerank_us=rerank_us)

    def linear_scan(self, query: SparseCase, top_n: int) -> RetrievalResult:
        """Exact top_n over every stored case; the oracle retrieve is judged by."""
        if query.features.dim != self.dim:
            raise DataFormatError(
                f"query dim {query.features.dim} does not match index dim {self.dim}")
        if not self._cases:
            return RetrievalResult(ids=[], distances=np.empty(0), n_candidates=0,
                                   radius_used=0)
        t0 = time.perf_counter_ns()
        ids, _, _ = self._matrix()
        dists = self._distances_to(query, None)
        ranked_ids, ranked_d = self._rank(ids, dists, top_n)
        rerank_us = (time.perf_counter_ns() - t0) / 1e3
        return RetrievalResult(ids=ranked_ids, distances=ranked_d,
                               n_candidates=len(ids), radius_used=0,
                               rerank_us=rerank_us)

    def save(self, path) -> None:
        """Binary dump: header, id/code/label arrays, then packed features."""
        ids = np.array(self.ids(), dtype=np.int64)
        n_words = (self.r + 63) // 64
        words = np.array([self._codes[int(i)].words for i in ids],
                         dtype=np.uint64).reshape(len(ids), n_words)
        labels = np.array([self._cases[int(i)].label for i in ids], dtype=np.int64)
        nnz = np.array([self._cases[int(i)].features.nnz for i in ids], dtype=np.int64)
        with open(str(path), "wb") as fh:
            fh.write(INDEX_MAGIC)
            np.array([CHECKPOINT_VERSION, self.r, self.dim, len(ids)],
                     dtype="<i8").tofile(fh)
            ids.astype("<i8").tofile(fh)
            words.astype("<u8").tofile(fh)
            labels.astype("<i8").tofile(fh)
            nnz.astype("<i8").tofile(fh)
            for i in ids:
                feats = self._cases[int(i)].features
                np.asarray(feats.indices, dtype="<i8").tofile(fh)
                np.asarray(feats.values, dtype="<f8").tofile(fh)

    @classmethod
    def load(cls, path) -> "HashIndex":
        """Read a file written by save(); a short or corrupt file raises
        DataFormatError."""
        with open(str(path), "rb") as fh:
            if fh.read(4) != INDEX_MAGIC:
                raise DataFormatError("not an index file")
            version, r, dim, n = (int(x) for x in _read(fh, "<i8", 4))
            if version != CHECKPOINT_VERSION:
                raise DataFormatError(f"unsupported index version {version}")
            if r < 1 or dim < 1 or n < 0:
                raise DataFormatError(f"corrupt index header: r={r} dim={dim} n={n}")
            n_words = (r + 63) // 64
            ids = _read(fh, "<i8", n)
            words = _read(fh, "<u8", n * n_words).reshape(n, n_words)
            labels = _read(fh, "<i8", n)
            nnz = _read(fh, "<i8", n)
            idx = cls(r=r, dim=dim)
            for k in range(n):
                f_idx = _read(fh, "<i8", int(nnz[k]))
                f_val = _read(fh, "<f8", int(nnz[k]))
                case = SparseCase(
                    id=int(ids[k]),
                    features=SparseVector(dim=dim,
                                          indices=tuple(int(t) for t in f_idx),
                                          values=tuple(float(v) for v in f_val)),
                    label=int(labels[k]),
                )
                code = HashCode(r=r, words=tuple(int(w) for w in words[k]))
                idx.insert(case, code)
        return idx


def _read(fh, dtype: str, count: int) -> np.ndarray:
    """Exactly count items from an index file, else DataFormatError."""
    if count < 0:
        raise DataFormatError(f"corrupt index file: negative count {count}")
    data = np.fromfile(fh, dtype=dtype, count=count)
    if len(data) != count:
        raise DataFormatError(
            f"truncated index file: expected {count} {dtype} items, got {len(data)}")
    return data
