"""Hamming-bucket index over binary case codes with exact rerank.

Row k holds the k-th stored case, its code as row k of one packed uint64
(n, ceil(r/64)) array, the array code_batch returns, and row k of the
feature snapshot, a CSR matrix; only code(id) builds a HashCode. Each bucket
is an ascending int64 array of the rows that share one code; an insert
appends one row to the code array and one to a bucket, and a remove or a
recode regroups every bucket in bulk. A query gathers candidates by
expanding the Hamming ball around its code one complete radius level at a
time (0, then 1, then 2 by default), stopping as soon as enough candidates
exist; since buckets are disjoint the gathered arrays concatenate into the
candidate rows with no set or id search. The survivors are reranked by
Euclidean distance on the original feature vectors and the top n kept by
(distance, id). linear_scan ranks every stored case with the same distance
kernel and serves as the retrieval oracle.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np
from scipy import sparse as sp

# the compiled kernels behind scipy's own x[rows] @ q
from scipy.sparse._sparsetools import csr_matvec, csr_row_index

from .network import HashCode, unpack_words
from .sparse import DataFormatError, SparseCase, SparseVector, cases_to_csr

INDEX_MAGIC = b"CHIX"
INDEX_VERSION = 1


def _code_key(words) -> int:
    """The packed words as one int, bit m of the code at bit m of the key."""
    key = 0
    for i, w in enumerate(words):
        key |= w << (64 * i)
    return key


def _group(words: np.ndarray) -> dict[int, np.ndarray]:
    """Bucket the rows of an (n, n_words) code array by code: key -> rows.

    One stable sort over the words, so every bucket's rows come out
    ascending.
    """
    if not len(words):
        return {}
    order = np.lexsort(words.T[::-1])
    ordered = words[order]
    starts = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])
    keys = [_code_key(row) for row in ordered[starts].tolist()]
    bounds = [*starts.tolist(), len(order)]
    return {key: order[a:b] for key, a, b in zip(keys, bounds, bounds[1:])}


def _feature_mask(nnz: np.ndarray) -> np.ndarray:
    """True at the index slots of the per-case (indices, values) runs that
    the index file interleaves: nnz[k] indices, then nnz[k] values."""
    return np.repeat(np.tile([True, False], len(nnz)), np.repeat(nnz, 2))


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
        # row k: _cases[k], its code _words[k] and snapshot row k; _row maps
        # each id to its row and lists the ids in row order
        self._cases: list[SparseCase] = []
        self._words = np.zeros((0, (r + 63) // 64), dtype=np.uint64)
        self._row: dict[int, int] = {}
        # code key -> ascending row positions; never empty
        self._buckets: dict[int, np.ndarray] = {}
        self._masks: dict[int, list[int]] = {}
        self._snapshot = None  # (row ids, csr matrix, row squared norms)

    def __len__(self) -> int:
        return len(self._cases)

    def __contains__(self, case_id: int) -> bool:
        return case_id in self._row

    def case(self, case_id: int) -> SparseCase:
        return self._cases[self._row[case_id]]

    def code(self, case_id: int) -> HashCode:
        # Python ints, since _code_key shifts word i by 64 * i
        return HashCode(r=self.r, words=tuple(self._words[self._row[case_id]].tolist()))

    def ids(self) -> list[int]:
        return sorted(self._row)

    @property
    def n_buckets(self) -> int:
        return len(self._buckets)

    def stats(self) -> dict:
        """Bucket count, largest bucket and, per bit, the fraction of stored
        cases whose code has that bit set."""
        sizes = np.array([len(b) for b in self._buckets.values()], dtype=np.int64)
        balance = unpack_words(self._words, self.r).sum(axis=0) / max(len(self), 1)
        return {"n_buckets": len(sizes), "largest_bucket": int(sizes.max(initial=0)),
                "bit_balance": [float(b) for b in balance]}

    @classmethod
    def build(cls, cases, coder) -> "HashIndex":
        """Index a case collection; coder must provide code_batch(cases)."""
        cases = list(cases)
        if not cases:
            raise ValueError("cannot build an index from zero cases")
        idx = cls(r=coder.r, dim=cases[0].features.dim)
        for case in cases:
            idx._append(case)
        idx._words = coder.code_batch(cases)
        idx._regroup()
        return idx

    def _append(self, case: SparseCase) -> None:
        if case.id in self._row:
            raise KeyError(f"duplicate case id {case.id}")
        if case.features.dim != self.dim:
            raise DataFormatError(
                f"case dim {case.features.dim} does not match index dim {self.dim}")
        self._row[case.id] = len(self._cases)
        self._cases.append(case)

    def _regroup(self) -> None:
        """Rebuild every bucket from the code array."""
        self._buckets = _group(self._words)

    def insert(self, case: SparseCase, code: HashCode) -> None:
        if code.r != self.r:
            raise ValueError(f"code width {code.r} does not match index width {self.r}")
        self._append(case)
        self._words = np.concatenate((self._words, np.array([code.words], dtype=np.uint64)))
        row = np.array([len(self._cases) - 1], dtype=np.int64)
        key = _code_key(code.words)
        bucket = self._buckets.get(key)
        self._buckets[key] = row if bucket is None else np.concatenate((bucket, row))
        self._snapshot = None

    def remove(self, case_id: int) -> SparseCase:
        if case_id not in self._row:
            raise KeyError(f"unknown case id {case_id}")
        row = self._row[case_id]
        case = self._cases.pop(row)
        self._row = {c.id: k for k, c in enumerate(self._cases)}  # later rows move up
        self._words = np.delete(self._words, row, axis=0)
        self._regroup()
        self._snapshot = None
        return case

    def replace_codes(self, coder) -> int:
        """Recompute every stored code and rebuild the buckets in place;
        coder must provide code_rows(x) for the (n, dim) CSR feature matrix.
        Returns how many stored codes changed."""
        if coder.r != self.r:
            raise ValueError(f"coder width {coder.r} does not match index width {self.r}")
        # code the snapshot's rows, and keep it: rows and features are unchanged
        old, self._words = self._words, coder.code_rows(self._matrix()[1])
        self._regroup()
        return int(np.count_nonzero((old != self._words).any(axis=1)))

    def _level(self, key: int, t: int) -> list[np.ndarray]:
        """Bucket arrays of the codes at exactly Hamming distance t."""
        masks = self._masks.get(t)
        if masks is None:  # no larger than the key list each probe builds
            masks = [sum(1 << m for m in bits) for bits in combinations(range(self.r), t)]
            self._masks[t] = masks
        get = self._buckets.get
        return [b for b in map(get, [key ^ m for m in masks]) if b is not None]

    def candidates_within(self, code: HashCode, radius: int) -> set[int]:
        """Ids of stored cases whose codes lie within the Hamming radius."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        key = _code_key(code.words)
        parts = [b for t in range(radius + 1) for b in self._level(key, t)]
        if not parts:
            return set()
        ids = (self._snapshot[0] if self._snapshot is not None
               else np.fromiter(self._row, dtype=np.int64, count=len(self._row)))
        return set(ids[np.concatenate(parts)].tolist())

    def _matrix(self):
        if self._snapshot is None:
            ids = np.fromiter(self._row, dtype=np.int64, count=len(self._row))
            self._snapshot = _snapshot(ids, cases_to_csr(self._cases, self.dim))
        return self._snapshot

    def _distances_to(self, query: SparseCase, rows: np.ndarray) -> np.ndarray:
        """Euclidean distance from the query to the given snapshot rows."""
        ids, x, row_sq = self._matrix()
        q = np.zeros(self.dim)
        q[list(query.features.indices)] = query.features.values
        if rows is None:
            sq = row_sq - 2.0 * (x @ q) + q @ q
        else:
            sq = row_sq[rows] - 2.0 * _row_dots(x, rows, q) + q @ q
        return np.sqrt(np.maximum(sq, 0.0))

    @staticmethod
    def _rank(ids: np.ndarray, dists: np.ndarray, top_n: int):
        """The top_n by (distance, id): a partition keeps every candidate at
        or below the top_n-th distance, so ties there still break by id."""
        if len(dists) > top_n:
            keep = np.flatnonzero(dists <= np.partition(dists, top_n - 1)[top_n - 1])
            ids, dists = ids[keep], dists[keep]
        order = np.lexsort((ids, dists))[:top_n]
        return ids[order].tolist(), dists[order]

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
        key = _code_key(code.words)
        parts: list[np.ndarray] = []
        n_found = 0
        radius_used = 0
        truncated = False
        for t in range(max_radius + 1):
            radius_used = t
            level = self._level(key, t)
            parts += level
            n_found += sum(map(len, level))
            if n_found >= top_n:
                break
            if max_candidates is not None and n_found >= max_candidates:
                truncated = True
                break
        # buckets are disjoint, so the rows are distinct
        rows = np.concatenate(parts) if parts else None
        gather_us = (time.perf_counter_ns() - t0) / 1e3

        if rows is None:
            return RetrievalResult(ids=[], distances=np.empty(0), n_candidates=0,
                                   radius_used=radius_used, truncated=truncated,
                                   gather_us=gather_us)

        t1 = time.perf_counter_ns()
        snap_ids, _, _ = self._matrix()
        dists = self._distances_to(query, rows)
        ranked_ids, ranked_d = self._rank(snap_ids[rows], dists, top_n)
        rerank_us = (time.perf_counter_ns() - t1) / 1e3
        return RetrievalResult(ids=ranked_ids, distances=ranked_d,
                               n_candidates=n_found, radius_used=radius_used,
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
        """Binary dump: header, id/code/label/nnz arrays, then each case's
        feature indices followed by its values, in ascending id order."""
        ids = np.fromiter(self._row, dtype="<i8", count=len(self._row))
        order = np.argsort(ids)
        cases = [self._cases[k] for k in order.tolist()]
        n = len(cases)
        labels = np.fromiter((c.label for c in cases), dtype="<i8", count=n)
        nnz = np.fromiter((c.features.nnz for c in cases), dtype="<i8", count=n)
        total = int(nnz.sum())
        feats = np.empty(2 * total, dtype="<i8")
        mask = _feature_mask(nnz)
        feats[mask] = np.fromiter(chain.from_iterable(c.features.indices for c in cases),
                                  dtype="<i8", count=total)
        feats[~mask] = np.fromiter(chain.from_iterable(c.features.values for c in cases),
                                   dtype="<f8", count=total).view("<i8")
        with open(str(path), "wb") as fh:
            fh.write(INDEX_MAGIC)
            np.array([INDEX_VERSION, self.r, self.dim, n], dtype="<i8").tofile(fh)
            ids[order].tofile(fh)
            self._words[order].astype("<u8", copy=False).tofile(fh)
            labels.tofile(fh)
            nnz.tofile(fh)
            feats.tofile(fh)

    @classmethod
    def load(cls, path) -> "HashIndex":
        """Read a file written by save(); a short or corrupt file raises
        DataFormatError."""
        with open(str(path), "rb") as fh:
            if fh.read(4) != INDEX_MAGIC:
                raise DataFormatError("not an index file")
            version, r, dim, n = (int(x) for x in _read(fh, "<i8", 4))
            if version != INDEX_VERSION:
                raise DataFormatError(f"unsupported index version {version}")
            if r < 1 or dim < 1 or n < 0:
                raise DataFormatError(f"corrupt index header: r={r} dim={dim} n={n}")
            n_words = (r + 63) // 64
            ids = _read(fh, "<i8", n).astype(np.int64)
            words = _read(fh, "<u8", n * n_words).reshape(n, n_words)
            spare = n_words * 64 - r
            if spare and (words[:, -1] >> np.uint64(64 - spare)).any():
                raise DataFormatError("corrupt index file: unused high bits must be zero")
            labels = _read(fh, "<i8", n).tolist()
            nnz = _read(fh, "<i8", n).astype(np.int64)
            if (nnz < 0).any():
                raise DataFormatError(f"corrupt index file: negative count {nnz.min()}")
            feats = _read(fh, "<i8", 2 * sum(nnz.tolist()))
        mask = _feature_mask(nnz)
        indices = feats[mask].astype(np.int64)
        values = feats[~mask].view("<f8").astype(np.float64)
        del feats, mask

        idx = cls(r=r, dim=dim)
        indptr = np.r_[0, np.cumsum(nnz)]
        bounds = indptr.tolist()
        ind_list, val_list = indices.tolist(), values.tolist()
        id_list = ids.tolist()
        try:  # the constructors check each case's features
            idx._cases = [
                SparseCase(id=cid,
                           features=SparseVector(dim=dim, indices=tuple(ind_list[a:b]),
                                                 values=tuple(val_list[a:b])),
                           label=label)
                for cid, a, b, label in zip(id_list, bounds, bounds[1:], labels)]
        except ValueError as err:
            raise DataFormatError(f"corrupt index file: {err}") from None
        idx._row = dict(zip(id_list, range(n)))
        if len(idx._row) != n:
            raise DataFormatError("corrupt index file: duplicate case ids")
        idx._words = words
        idx._buckets = _group(words)
        idx._snapshot = _snapshot(ids, sp.csr_matrix((values, indices, indptr),
                                                     shape=(n, dim)))
        return idx


def _row_dots(x, rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """x[rows] @ q, bit for bit: the same two scipy kernels, minus the index
    checks and the matrix construction that x[rows] adds per call, which
    cost about as much as the kernels at a few thousand rows."""
    ip = x.indptr
    rows = rows.astype(ip.dtype)
    sub_ip = np.zeros(len(rows) + 1, dtype=ip.dtype)
    np.cumsum(ip[rows + 1] - ip[rows], out=sub_ip[1:])
    sub_ix = np.empty(sub_ip[-1], dtype=ip.dtype)
    sub_x = np.empty(sub_ip[-1], dtype=x.data.dtype)
    csr_row_index(len(rows), rows, ip, x.indices.astype(ip.dtype, copy=False), x.data,
                  sub_ix, sub_x)
    out = np.zeros(len(rows))
    csr_matvec(len(rows), x.shape[1], sub_ip, sub_ix, sub_x, q, out)
    return out


def _snapshot(ids: np.ndarray, x):
    return ids, x, np.asarray(x.multiply(x).sum(axis=1)).ravel()


def _read(fh, dtype: str, count: int) -> np.ndarray:
    """Exactly count items from an index file, else DataFormatError."""
    if count < 0:
        raise DataFormatError(f"corrupt index file: negative count {count}")
    itemsize = np.dtype(dtype).itemsize
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count * itemsize > left:
        raise DataFormatError(
            f"truncated index file: expected {count} {dtype} items, got {left // itemsize}")
    return np.fromfile(fh, dtype=dtype, count=count)
