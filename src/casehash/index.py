"""Hamming-bucket index over binary case codes with exact rerank.

Row k holds one stored case: its id and label as entry k of two int64
arrays, its code as row k of one packed uint64 (n, ceil(r/64)) array, the
array a coder's code_rows returns, and row k of the feature snapshot, a CSR
matrix, beside its squared norm; only code(id) builds a HashCode. The rows
are kept in code order. build, load, remove and replace_codes each end in
_set_rows, the one place that sets these arrays: it permutes them, the
snapshot and its norms included, into the order of a stable sort of the
codes, so every bucket's rows are one ascending range. An insert appends
its row at the end, and to its bucket, until the next regroup. Every id
accessor finds its rows in one vectorized binary search of a sorted copy
of the id array, beside each sorted id's row; save reads its ascending id
order from the same pair.

build converts its cases to that matrix once, codes it, permutes it and
keeps it, so neither save nor the first query converts again. The index
file stores, in ascending id order, the matrix's index and value arrays as
two blocks, so a loaded index reads them straight into its snapshot,
checked as one block. case(id) always reads its row of the snapshot and
builds that one SparseCase with sparse.rows_to_cases; rows(ids) gathers
many rows into one CSR matrix.

The case list exists only to rebuild the snapshot after a write: only
that rebuild, insert and remove touch it. A loaded index has none until
its first insert or remove builds it once from the snapshot. The list
keeps the order the cases arrived in: build's order, then each insert. One
int64 array maps each row to its place in the list. An insert or a remove
drops the snapshot, and the next read converts the list in list order,
which walks the case objects in the order they were made, then gathers the
converted rows into code order; converting in code order would walk them
scattered across memory, at more than twice the cost.

The buckets are one table: the distinct codes as a (n_buckets, words)
uint64 array sorted word by word, beside each bucket's ascending int64
array of the rows that share its code. An insert finds its bucket by binary
search, appending its row there or placing a new code at its sorted place;
a remove or a recode regroups every row in bulk. A query gathers candidates
one complete Hamming radius level at a time (0, then 1, then 2 by default),
stopping as soon as enough candidates exist: level 0 is a binary search of
the table, and only a query that needs more counts its distance to every
bucket, once, and takes the buckets at each distance in turn. Since buckets
are disjoint the gathered arrays concatenate into the candidate rows with
no set or id search. The survivors are reranked by Euclidean distance on
the original feature vectors and the top n kept by (distance, id). When the
candidates are one bucket whose rows are still one range, the rerank reads
that slice of the snapshot, the norms and the ids in place; any other
candidate set gathers its rows first. linear_scan ranks every stored case
with the same distance kernel and serves as the retrieval oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse as sp

# the compiled kernels behind scipy's own x[rows] @ q
from scipy.sparse._sparsetools import csr_matvec, csr_row_index

from .network import HashCode, read_block, unpack_words
from .sparse import DataFormatError, SparseCase, cases_to_csr, rows_to_cases

INDEX_MAGIC = b"CHIX"
INDEX_VERSION = 2


def _group(words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The code order of an (n, n_words) code array: the permutation that
    sorts its rows by word 0, then word 1 and so on, the distinct codes in
    that order as one table, and where each code's rows start in it.

    The sort is stable, so the rows of one code keep their order.
    """
    order = np.lexsort(words.T[::-1])
    if not len(order):
        return order, words, order
    ordered = words[order]
    starts = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])
    return order, ordered[starts], starts


@dataclass
class RetrievalResult:
    """Ranked ids with distances plus gathering diagnostics and phase timings."""

    ids: list[int]
    distances: np.ndarray
    n_candidates: int
    radius_used: int
    gather_us: float = 0.0
    rerank_us: float = 0.0


class HashIndex:
    """Mutable id -> (case, code) store bucketed by code for sublinear lookup."""

    def __init__(self, r: int, dim: int):
        if r < 1 or dim < 1:
            raise ValueError("r and dim must be positive")
        self.r = r
        self.dim = dim
        # row k: _ids[k], _labels[k], its code _words[k], snapshot row k and
        # the case _cases[_pos[k]]; _sorted_ids holds the ids ascending and
        # _sorted_rows each one's row. A loaded index has no case list (None)
        # until its first insert or remove.
        self._cases: list[SparseCase] | None = []
        empty = np.zeros(0, dtype=np.int64)
        self._set_rows(empty, empty, np.zeros((0, (r + 63) // 64), dtype=np.uint64), None, empty)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, case_id: int) -> bool:
        try:
            self._rows([case_id])
        except KeyError:
            return False
        return True

    def case(self, case_id: int) -> SparseCase:
        row = int(self._rows([case_id])[0])
        return rows_to_cases(self._matrix()[0], row, row + 1, self._ids, self._labels)[0]

    def labels(self, ids) -> np.ndarray:
        """The labels of the given ids as one int64 array, in their order;
        KeyError names the first id that is not stored."""
        return self._labels[self._rows(ids)]

    def rows(self, ids):
        """The given ids' snapshot rows, in their order, as one CSR matrix,
        and their int64 labels; KeyError names the first id not stored."""
        rows = self._rows(ids)
        return _take(self._matrix()[0], rows), self._labels[rows]

    def code(self, case_id: int) -> HashCode:
        return HashCode(r=self.r, words=tuple(self._words[self._rows([case_id])[0]].tolist()))

    def ids(self) -> list[int]:
        return self._sorted_ids.tolist()

    def _rows(self, ids) -> np.ndarray:
        """The rows of the given ids as one int64 array, in their order, by
        binary search of the sorted ids; KeyError names the first id that
        is not stored."""
        ids = np.asarray(ids, dtype=np.int64)
        at = self._sorted_ids.searchsorted(ids)
        found = at < len(self)
        found[found] = self._sorted_ids[at[found]] == ids[found]
        if not found.all():
            raise KeyError(int(ids[~found][0]))
        return self._sorted_rows[at]

    @property
    def n_buckets(self) -> int:
        return len(self._table)

    def stats(self) -> dict:
        """Bucket count, largest bucket and, per bit, the fraction of stored
        cases whose code has that bit set."""
        balance = unpack_words(self._words, self.r).sum(axis=0) / max(len(self), 1)
        return {"n_buckets": self.n_buckets,
                "largest_bucket": max(map(len, self._buckets), default=0),
                "bit_balance": [float(b) for b in balance]}

    @classmethod
    def build(cls, cases, coder) -> "HashIndex":
        """Index a case collection; coder must provide code_rows(x) for the
        (n, dim) CSR feature matrix. That matrix, in code order, becomes the
        snapshot; the case list keeps the given order."""
        cases = list(cases)
        if not cases:
            raise ValueError("cannot build an index from zero cases")
        x = cases_to_csr(cases, cases[0].features.dim)
        idx = cls(r=coder.r, dim=x.shape[1])
        idx._cases = cases
        ids = np.fromiter((c.id for c in cases), dtype=np.int64, count=len(cases))
        labels = np.fromiter((c.label for c in cases), dtype=np.int64, count=len(cases))
        return idx._set_rows(ids, labels, coder.code_rows(x), x, np.arange(len(cases)))

    def _set_rows(self, ids: np.ndarray, labels: np.ndarray, words: np.ndarray,
                  x, pos: np.ndarray | None) -> "HashIndex":
        """Regroup: make the rows hold ids, labels, code words, case list
        places pos (None without a case list) and the rows of the CSR matrix
        x, permuted into code order; x becomes the snapshot (None after a
        write). A repeated id raises DataFormatError naming it."""
        by_id = np.argsort(ids)
        sorted_ids = ids[by_id]
        repeated = np.flatnonzero(sorted_ids[1:] == sorted_ids[:-1])
        if len(repeated):
            raise DataFormatError(f"duplicate case id {sorted_ids[repeated[0]]}")
        order, self._table, starts = _group(words)
        row_of = np.empty_like(order)
        row_of[order] = np.arange(len(order))
        self._sorted_ids, self._sorted_rows = sorted_ids, row_of[by_id]
        self._ids, self._labels, self._words = ids[order], labels[order], words[order]
        self._pos = None if pos is None else pos[order]
        rows, bounds = np.arange(len(order)), [*starts.tolist(), len(order)]
        self._buckets = [rows[a:b] for a, b in zip(bounds, bounds[1:])]
        self._snapshot = None if x is None else _snapshot(x, order)
        return self

    def _own_cases(self) -> list[SparseCase]:
        """The case list; a loaded index builds it from its snapshot once,
        in row order."""
        if self._cases is None:
            self._cases = rows_to_cases(self._matrix()[0], 0, len(self), self._ids, self._labels)
            self._pos = np.arange(len(self))
        return self._cases

    def insert(self, case: SparseCase, code: HashCode) -> None:
        self._check(case, code)
        if case.id in self:
            raise KeyError(f"duplicate case id {case.id}")
        cases = self._own_cases()
        row, at = len(self), self._sorted_ids.searchsorted(case.id)
        self._sorted_ids = np.insert(self._sorted_ids, at, case.id)
        self._sorted_rows = np.insert(self._sorted_rows, at, row)
        self._pos = np.append(self._pos, len(cases))
        cases.append(case)
        self._ids, self._labels = np.append(self._ids, case.id), np.append(self._labels, case.label)
        self._words = np.concatenate((self._words, np.array([code.words], dtype=np.uint64)))
        rows = np.array([row], dtype=np.int64)
        at, found = self._find(code.words)
        if found:
            self._buckets[at] = np.concatenate((self._buckets[at], rows))
        else:
            self._table = np.insert(self._table, at, self._words[-1], axis=0)
            self._buckets.insert(at, rows)
        self._snapshot = None

    def remove(self, case_id: int) -> SparseCase:
        row, cases = int(self._rows([case_id])[0]), self._own_cases()
        place = self._pos[row]
        case = cases.pop(place)
        pos = np.delete(self._pos, row)
        pos[pos > place] -= 1  # later cases move up the list
        self._set_rows(np.delete(self._ids, row), np.delete(self._labels, row),
                       np.delete(self._words, row, axis=0), None, pos)
        return case

    def replace_codes(self, coder) -> int:
        """Recompute every stored code and regroup the rows in place;
        coder must provide code_rows(x) for the (n, dim) CSR feature matrix.
        Returns how many stored codes changed."""
        if coder.r != self.r:
            raise ValueError(f"coder width {coder.r} does not match index width {self.r}")
        # code the snapshot's rows, and keep it: rows and features are unchanged
        x = self._matrix()[0]
        words = coder.code_rows(x)
        changed = int(np.count_nonzero((words != self._words).any(axis=1)))
        self._set_rows(self._ids, self._labels, words, x, self._pos)
        return changed

    def _check(self, case: SparseCase, code: HashCode | None = None) -> None:
        """DataFormatError unless the case has the index's dim, ValueError
        unless the code, when given, has its width."""
        if case.features.dim != self.dim:
            raise DataFormatError(f"case {case.id} dim {case.features.dim} does not match "
                                  f"index dim {self.dim}")
        if code is not None and code.r != self.r:
            raise ValueError(f"code width {code.r} does not match index width {self.r}")

    def _find(self, words) -> tuple[int, bool]:
        """The table position of a code's words, and whether the table holds
        that code there: a binary search narrowed word by word, one search
        for the last word. Each word is compared as np.uint64, since a
        Python int with bit 63 set need not be."""
        lo, hi = 0, len(self._table)
        *head, last = map(np.uint64, words)
        for i, w in enumerate(head):
            col = self._table[lo:hi, i]
            lo, hi = lo + col.searchsorted(w), lo + col.searchsorted(w, "right")
        at = lo + self._table[lo:hi, -1].searchsorted(last)
        return at, at < hi and self._table[at, -1] == last

    def _distances(self, words) -> np.ndarray:
        """The Hamming distance from a code's words to every bucket, summed
        word by word: a sum over the table's rows costs twice as much at one
        word. One word's distances stay uint8, whose arithmetic costs least
        on a cold cache."""
        dist = np.bitwise_count(self._table[:, 0] ^ np.uint64(words[0]))
        for i, w in enumerate(words[1:], 1):
            dist = dist + np.bitwise_count(self._table[:, i] ^ np.uint64(w)).astype(np.int64)
        return dist

    def candidates_within(self, code: HashCode, radius: int) -> set[int]:
        """Ids of stored cases whose codes lie within the Hamming radius."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if code.r != self.r:
            raise ValueError(f"code width {code.r} does not match index width {self.r}")
        parts = [self._buckets[b] for b in np.flatnonzero(self._distances(code.words) <= radius)]
        return set(self._ids[np.concatenate(parts)].tolist()) if parts else set()

    def _matrix(self):
        """The feature snapshot, rebuilt after a write from the case list,
        converted in list order and gathered into row order."""
        if self._snapshot is None:
            self._snapshot = _snapshot(cases_to_csr(self._cases, self.dim), self._pos)
        return self._snapshot

    def _distances_to(self, query: SparseCase, rows) -> np.ndarray:
        """Euclidean distance from the query to the given snapshot rows: an
        array of rows or a slice of them."""
        x, row_sq = self._matrix()
        q = np.zeros(self.dim)
        q[list(query.features.indices)] = query.features.values
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
                 max_radius: int = 2) -> RetrievalResult:
        """Gather by growing Hamming radius, then rerank by feature distance.

        Levels are always expanded whole, so the candidate set at the final
        radius matches a brute-force Hamming filter exactly. Expansion stops
        once top_n candidates exist or the radius is exhausted.
        """
        self._check(query, code)
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        if max_radius < 0:
            raise ValueError("max_radius must be >= 0")

        t0 = time.perf_counter_ns()
        at, found = self._find(code.words)
        parts = [self._buckets[at]] if found else []
        n_found = sum(map(len, parts))
        radius_used = 0
        if n_found < top_n and max_radius > 0:
            dist = self._distances(code.words)
            for t in range(1, min(max_radius, self.r) + 1):  # no code lies beyond r
                level = [self._buckets[b] for b in np.flatnonzero(dist == t).tolist()]
                parts += level
                n_found += sum(map(len, level))
                if n_found >= top_n:
                    break
            radius_used = t if n_found >= top_n else max_radius
        # buckets are disjoint, so the rows are distinct; one bucket that no
        # insert has extended since the last regroup is one range of rows
        rows = np.concatenate(parts) if parts else None
        if len(parts) == 1 and rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        gather_us = (time.perf_counter_ns() - t0) / 1e3

        if rows is None:
            return RetrievalResult(ids=[], distances=np.empty(0), n_candidates=0,
                                   radius_used=radius_used, gather_us=gather_us)

        t1 = time.perf_counter_ns()
        dists = self._distances_to(query, rows)
        ranked_ids, ranked_d = self._rank(self._ids[rows], dists, top_n)
        rerank_us = (time.perf_counter_ns() - t1) / 1e3
        return RetrievalResult(ids=ranked_ids, distances=ranked_d,
                               n_candidates=n_found, radius_used=radius_used,
                               gather_us=gather_us, rerank_us=rerank_us)

    def linear_scan(self, query: SparseCase, top_n: int) -> RetrievalResult:
        """Exact top_n over every stored case; the oracle retrieve is judged by."""
        self._check(query)
        t0 = time.perf_counter_ns()
        dists = self._distances_to(query, slice(0, len(self)))
        ranked_ids, ranked_d = self._rank(self._ids, dists, top_n)
        rerank_us = (time.perf_counter_ns() - t0) / 1e3
        return RetrievalResult(ids=ranked_ids, distances=ranked_d,
                               n_candidates=len(self), radius_used=0,
                               rerank_us=rerank_us)

    def save(self, path) -> None:
        """Binary dump, little-endian, in ascending id order: the magic, then
        int64 version, r, dim and n, the n ids, the n codes as ceil(r/64)
        uint64 words each, the n labels and the n feature counts, then the
        feature matrix's CSR arrays as two blocks: every case's indices
        (int64), then every case's values (float64)."""
        order = self._sorted_rows
        indptr, indices, values = _gather_rows(self._matrix()[0], order)
        with open(str(path), "wb") as fh:
            fh.write(INDEX_MAGIC)
            np.array([INDEX_VERSION, self.r, self.dim, len(order)], dtype="<i8").tofile(fh)
            self._sorted_ids.astype("<i8", copy=False).tofile(fh)
            self._words[order].astype("<u8", copy=False).tofile(fh)
            self._labels[order].astype("<i8", copy=False).tofile(fh)
            np.diff(indptr).astype("<i8", copy=False).tofile(fh)
            indices.astype("<i8", copy=False).tofile(fh)
            values.astype("<f8", copy=False).tofile(fh)

    @classmethod
    def load(cls, path) -> "HashIndex":
        """Read a file written by save(); a short or corrupt file, or one of
        another version, raises DataFormatError. The rows stay in the
        feature snapshot, permuted into code order: no case object is
        built."""
        with open(str(path), "rb") as fh:
            if fh.read(4) != INDEX_MAGIC:
                raise DataFormatError("not an index file")
            version, r, dim, n = (int(x) for x in read_block(fh, "<i8", 4, _truncated))
            if version != INDEX_VERSION:  # version 1 interleaved each case's features
                raise DataFormatError(f"index file version {version} is not {INDEX_VERSION}; "
                                      "rebuild it with `casehash index`")
            if r < 1 or dim < 1 or n < 0:
                raise DataFormatError(f"corrupt index header: r={r} dim={dim} n={n}")
            n_words = (r + 63) // 64
            ids = read_block(fh, "<i8", n, _truncated).astype(np.int64)
            words = read_block(fh, "<u8", n * n_words, _truncated).reshape(n, n_words)
            spare = n_words * 64 - r
            if spare and (words[:, -1] >> np.uint64(64 - spare)).any():
                raise DataFormatError("corrupt index file: unused high bits must be zero")
            labels = read_block(fh, "<i8", n, _truncated).astype(np.int64)
            nnz = read_block(fh, "<i8", n, _truncated).astype(np.int64)
            if (nnz < 0).any():
                raise DataFormatError(f"corrupt index file: negative count {nnz.min()}")
            total = sum(nnz.tolist())
            indices = read_block(fh, "<i8", total, _truncated).astype(np.int64, copy=False)
            values = read_block(fh, "<f8", total, _truncated).astype(np.float64, copy=False)
        indptr = np.r_[0, np.cumsum(nnz)]
        _check_features(ids, indptr, indices, values, dim)

        x = sp.csr_matrix((values, indices, indptr), shape=(n, dim))
        del indices, values  # the matrix holds what it needs of them
        idx = cls(r=r, dim=dim)
        idx._cases = None
        return idx._set_rows(ids, labels, words, x, None)


def _truncated(count: int, dtype: str, got: int) -> str:
    """read_block's text for an index file that ends early."""
    return f"truncated index file: expected {count} {dtype} items, got {got}"


def _check_features(ids, indptr, indices, values, dim: int) -> None:
    """DataFormatError unless, in every row of the CSR arrays, the indices
    lie in [0, dim) and strictly ascend and every value is finite and
    nonzero; the error names the case of the first bad entry."""
    def fail(entry: int, what: str):
        row = int(np.searchsorted(indptr, entry, side="right")) - 1
        raise DataFormatError(f"corrupt index file: case {ids[row]}: {what}")

    bad = np.flatnonzero((indices < 0) | (indices >= dim))
    if len(bad):
        fail(bad[0], f"index {indices[bad[0]]} out of range for dim={dim}")
    # a fall is allowed only where a row starts
    falls = np.diff(indices) <= 0
    starts = indptr[1:-1]
    falls[starts[(starts > 0) & (starts < len(indices))] - 1] = False
    bad = np.flatnonzero(falls)
    if len(bad):
        fail(bad[0] + 1, "indices not strictly ascending")
    bad = np.flatnonzero(values == 0.0)
    if len(bad):
        fail(bad[0], "stored values must be nonzero")
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        fail(bad[0], f"value {values[bad[0]]} is not finite")


def _gather_rows(x, rows: np.ndarray):
    """The indptr, indices and data of x[rows], through scipy's own kernel."""
    ip = x.indptr
    rows = rows.astype(ip.dtype)
    sub_ip = np.zeros(len(rows) + 1, dtype=ip.dtype)
    np.cumsum(ip[rows + 1] - ip[rows], out=sub_ip[1:])
    sub_ix = np.empty(sub_ip[-1], dtype=ip.dtype)
    sub_x = np.empty(sub_ip[-1], dtype=x.data.dtype)
    csr_row_index(len(rows), rows, ip, x.indices.astype(ip.dtype, copy=False), x.data,
                  sub_ix, sub_x)
    return sub_ip, sub_ix, sub_x


def _row_dots(x, rows, q: np.ndarray) -> np.ndarray:
    """x[rows] @ q, bit for bit: the same two scipy kernels, minus the index
    checks and the matrix construction that x[rows] adds per call, which
    cost about as much as the kernels at a few thousand rows. A slice of
    rows is read in place, with no gather."""
    if isinstance(rows, slice):
        ip, ix, data = x.indptr[rows.start:rows.stop + 1], x.indices, x.data
    else:
        ip, ix, data = _gather_rows(x, rows)
    out = np.zeros(len(ip) - 1)
    csr_matvec(len(out), x.shape[1], ip, ix, data, q, out)
    return out


def _row_norms(x) -> np.ndarray:
    """Each row's squared norm, bit for bit x.multiply(x).sum(axis=1): the
    same reduceat over the squares that scipy runs, without the copy of x."""
    sq = np.zeros(x.shape[0])
    nonempty = np.flatnonzero(np.diff(x.indptr))
    if len(nonempty):
        sq[nonempty] = np.add.reduceat(x.data * x.data, x.indptr[nonempty])
    return sq


def _take(x, rows: np.ndarray):
    """The given rows of the CSR matrix x, in their order, as one CSR matrix."""
    indptr, indices, data = _gather_rows(x, rows)
    return sp.csr_matrix((data, indices, indptr), shape=(len(rows), x.shape[1]))


def _snapshot(x, order: np.ndarray):
    """The rows of the CSR matrix x in the given order, with their squared
    norms."""
    sq = _row_norms(x)[order]
    return _take(x, order), sq
