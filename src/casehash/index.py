"""Hamming-bucket index over binary case codes with exact rerank.

Row k holds one stored case: its id and label as entry k of two int64
arrays, its code as row k of one packed uint64 (n, ceil(r/64)) array, the
array a coder's code_rows returns, and row k of the feature snapshot, a CSR
matrix, beside its squared norm; only code(id) builds a HashCode. The rows
are kept in code order. build, load, remove and replace_codes each end in
_set_rows, the one place that sets these arrays: it permutes them, the
snapshot and its norms included, into the order of a stable sort of the
codes, so every bucket's rows are one ascending range; codes already in
that order skip the sort and the permutation. An insert appends its row at
the end, and to its bucket, until the next regroup. Every id accessor finds
its rows in one vectorized binary search of a sorted copy of the id array,
beside each sorted id's row.

build converts its cases to that matrix once, codes it, permutes it and
keeps it, so neither save nor the first query converts again. The index
file (version 3) stores the rows in code order with ids ascending within a
code, and the matrix's index and value arrays as two blocks, the counts and
indices at the narrowest unsigned width the dim allows. A loaded index
takes the file's rows as its own, in the order they stand, so load neither
sorts nor gathers; save writes rows already in file order as they are, and
sorts the others. case(id) always reads its row of the snapshot and builds
that one SparseCase with sparse.rows_to_cases; rows(ids) gathers many rows
into one CSR matrix.

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
array of the rows that share its code. An insert finds its bucket by
binary search, appending its row there or placing a new code at its sorted
place; a remove or a recode regroups every row in bulk. One walk, _gather,
is the only reader of the table for a query: it takes candidates one
complete Hamming radius level at a time (0, then 1, then 2 by default),
stopping as soon as enough candidates exist. Level 0 is a binary search of
the table, and only a walk that needs more counts its distance to every
bucket, once, and takes the buckets at each distance in turn. Since
buckets are disjoint the gathered arrays concatenate into the candidate
rows with no set or id search. candidates_within asks for more rows than
the index holds, so its walk takes every level up to its radius. _rank
reranks the walk's rows by Euclidean distance on the original feature
vectors and keeps the top n by (distance, id), with their ids and labels;
an empty walk ranks to an empty answer. When the candidates are one bucket
whose rows are still one range, the rerank reads that slice of the
snapshot, the norms, the ids and the labels in place; any other candidate
set gathers its rows first. linear_scan ranks every stored case through
the same _rank and serves as the retrieval oracle. build and insert refuse
a non-finite feature value, as load does.
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
INDEX_VERSION = 3


def _group(words: np.ndarray) -> tuple[np.ndarray | slice, np.ndarray, np.ndarray]:
    """The code order of an (n, n_words) code array: the permutation that
    sorts its rows by word 0, then word 1 and so on, the distinct codes in
    that order as one table, and where each code's rows start in it.

    The sort is stable, so the rows of one code keep their order. Rows that
    are in code order already, as a loaded file's are, pay no sort: their
    permutation is the identity, slice(None).
    """
    order = slice(None) if _in_code_order(words) else np.lexsort(words.T[::-1])
    ordered = words[order]
    if not len(ordered):
        return order, ordered, np.zeros(0, dtype=np.int64)
    starts = np.flatnonzero(np.r_[True, (ordered[1:] != ordered[:-1]).any(axis=1)])
    return order, ordered[starts], starts


def _in_code_order(words: np.ndarray, ids: np.ndarray | None = None) -> bool:
    """Whether the rows of an (n, n_words) code array ascend word by word,
    equal codes allowed; given ids, equal codes must also hold strictly
    ascending ids. One pass over each word."""
    rising = np.zeros(max(len(words) - 1, 0), dtype=bool)
    equal = ~rising
    for col in words.T:
        rising |= equal & (col[1:] > col[:-1])
        equal &= col[1:] == col[:-1]
    if ids is not None:
        equal &= ids[1:] > ids[:-1]
    return bool((rising | equal).all())


def _widths(dim: int) -> tuple[str, str]:
    """The file's count and feature-index dtypes at a feature dim: the
    narrowest little-endian unsigned types that hold dim and dim - 1."""
    def narrowest(top: int) -> str:
        return next(t for t in ("<u1", "<u2", "<u4", "<u8") if top <= np.iinfo(t).max)
    return narrowest(dim), narrowest(dim - 1)


@dataclass
class RetrievalResult:
    """Ranked ids with their distances and labels (int64, aligned with ids),
    plus gathering diagnostics and phase timings."""

    ids: list[int]
    distances: np.ndarray
    labels: np.ndarray
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
        at = int(self._sorted_ids.searchsorted(case_id))
        return at < len(self) and bool(self._sorted_ids[at] == case_id)

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
        _check_finite(ids, x.indptr, x.data)
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
        rows = np.arange(len(ids))
        row_of = np.empty_like(rows)
        row_of[order] = rows
        self._sorted_ids, self._sorted_rows = sorted_ids, row_of[by_id]
        self._ids, self._labels, self._words = ids[order], labels[order], words[order]
        self._pos = None if pos is None else pos[order]
        bounds = [*starts.tolist(), len(rows)]
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
        _check_finite([case.id], [0, case.features.nnz], np.array(case.features.values, float))
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

    def _gather(self, words, top_n: int, max_radius: int):
        """The rows of the buckets within max_radius of a code's words, one
        whole Hamming level at a time until top_n exist, as (rows, their
        count, the radius reached): an int64 array, zero rows for an empty
        walk, or a slice for one bucket still in one range. The distance to
        every bucket is summed word by word: a sum over the table's rows
        costs twice as much at one word, and one word's distances stay
        uint8, whose arithmetic costs least on a cold cache."""
        at, found = self._find(words)
        parts = [self._buckets[at]] if found else []
        n_found = sum(map(len, parts))
        radius_used = 0
        if n_found < top_n and max_radius > 0:
            dist = np.bitwise_count(self._table[:, 0] ^ np.uint64(words[0]))
            for i, w in enumerate(words[1:], 1):
                dist = dist + np.bitwise_count(self._table[:, i] ^ np.uint64(w)).astype(np.int64)
            for t in range(1, min(max_radius, self.r) + 1):  # no code lies beyond r
                level = [self._buckets[b] for b in np.flatnonzero(dist == t).tolist()]
                parts += level
                n_found += sum(map(len, level))
                if n_found >= top_n:
                    break
            radius_used = t if n_found >= top_n else max_radius
        # buckets are disjoint, so the rows are distinct; one bucket that no
        # insert has extended since the last regroup is one range of rows
        rows = np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        if len(parts) == 1 and rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        return rows, n_found, radius_used

    def candidates_within(self, code: HashCode, radius: int) -> set[int]:
        """Ids of stored cases whose codes lie within the Hamming radius."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        if code.r != self.r:
            raise ValueError(f"code width {code.r} does not match index width {self.r}")
        return set(self._ids[self._gather(code.words, len(self) + 1, radius)[0]].tolist())

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

    def _rank(self, query: SparseCase, rows, top_n: int):
        """The top_n of the given snapshot rows by (distance to the query,
        id), as their ids, distances and labels: a partition keeps every row
        at or below the top_n-th distance, so ties there still break by id."""
        dists = self._distances_to(query, rows)
        ids, labels = self._ids[rows], self._labels[rows]
        if len(dists) > top_n:
            keep = np.flatnonzero(dists <= np.partition(dists, top_n - 1)[top_n - 1])
            ids, dists, labels = ids[keep], dists[keep], labels[keep]
        order = np.lexsort((ids, dists))[:top_n]
        return ids[order].tolist(), dists[order], labels[order]

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
        rows, n_candidates, radius_used = self._gather(code.words, top_n, max_radius)
        t1 = time.perf_counter_ns()
        ids, dists, labels = self._rank(query, rows, top_n)
        return RetrievalResult(ids=ids, distances=dists, labels=labels,
                               n_candidates=n_candidates, radius_used=radius_used,
                               gather_us=(t1 - t0) / 1e3,
                               rerank_us=(time.perf_counter_ns() - t1) / 1e3)

    def linear_scan(self, query: SparseCase, top_n: int) -> RetrievalResult:
        """Exact top_n over every stored case; the oracle retrieve is judged by."""
        self._check(query)
        t0 = time.perf_counter_ns()
        ids, dists, labels = self._rank(query, slice(0, len(self)), top_n)
        return RetrievalResult(ids=ids, distances=dists, labels=labels,
                               n_candidates=len(self), radius_used=0,
                               rerank_us=(time.perf_counter_ns() - t0) / 1e3)

    def save(self, path) -> None:
        """Binary dump, little-endian, rows in code order with ids ascending
        within a code: the magic, then int64 version, r, dim and n, the n
        ids, the n codes as ceil(r/64) uint64 words each, the n labels (int64)
        and the n feature counts, then the feature matrix's CSR arrays as two
        blocks: every case's indices, then every case's values (float64). The
        counts and the indices take the narrowest unsigned type that holds
        dim and dim - 1 (_widths). Rows already in that order, as after a load
        or a regroup of rows built in id order, are written as they are."""
        x = self._matrix()[0]
        if _in_code_order(self._words, self._ids):
            order, (indptr, indices, values) = slice(None), (x.indptr, x.indices, x.data)
        else:
            order = np.lexsort((self._ids, *self._words.T[::-1]))
            indptr, indices, values = _gather_rows(x, order)
        count_type, index_type = _widths(self.dim)
        with open(str(path), "wb") as fh:
            fh.write(INDEX_MAGIC)
            np.array([INDEX_VERSION, self.r, self.dim, len(self)], dtype="<i8").tofile(fh)
            self._ids[order].astype("<i8", copy=False).tofile(fh)
            self._words[order].astype("<u8", copy=False).tofile(fh)
            self._labels[order].astype("<i8", copy=False).tofile(fh)
            np.diff(indptr).astype(count_type).tofile(fh)
            indices.astype(index_type).tofile(fh)
            values.astype("<f8", copy=False).tofile(fh)

    @classmethod
    def load(cls, path) -> "HashIndex":
        """Read a file written by save(); a short or corrupt file, or one of
        another version, raises DataFormatError. The file's rows, in code
        order with ids ascending within a code, become the index's rows as
        they stand: no sort, no gather and no case object."""
        with open(str(path), "rb") as fh:
            if fh.read(4) != INDEX_MAGIC:
                raise DataFormatError("not an index file")
            version, r, dim, n = (int(x) for x in read_block(fh, "<i8", 4, _truncated))
            if version != INDEX_VERSION:  # an index is derived data: rebuild it
                raise DataFormatError(f"index file version {version} is not {INDEX_VERSION}; "
                                      "rebuild it with `casehash index`")
            if r < 1 or dim < 1 or n < 0:
                raise DataFormatError(f"corrupt index header: r={r} dim={dim} n={n}")
            n_words = (r + 63) // 64
            count_type, index_type = _widths(dim)
            ids = read_block(fh, "<i8", n, _truncated).astype(np.int64)
            words = read_block(fh, "<u8", n * n_words, _truncated).reshape(n, n_words)
            spare = n_words * 64 - r
            if spare and (words[:, -1] >> np.uint64(64 - spare)).any():
                raise DataFormatError("corrupt index file: unused high bits must be zero")
            labels = read_block(fh, "<i8", n, _truncated).astype(np.int64)
            nnz = read_block(fh, count_type, n, _truncated)
            over = np.flatnonzero(nnz > dim)
            if len(over):
                raise DataFormatError(f"corrupt index file: case {ids[over[0]]}: "
                                      f"count {nnz[over[0]]} exceeds dim {dim}")
            total = int(nnz.sum(dtype=np.int64))
            # the in-memory index type scipy would pick: int64 only when needed
            itype = np.int32 if max(n, dim, total) <= np.iinfo(np.int32).max else np.int64
            # cast before any difference is taken: unsigned ones wrap
            indices = read_block(fh, index_type, total, _truncated).astype(itype)
            values = read_block(fh, "<f8", total, _truncated).astype(np.float64, copy=False)
        indptr = np.zeros(n + 1, dtype=itype)
        np.cumsum(nnz, dtype=itype, out=indptr[1:])
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
    _check_finite(ids, indptr, values, "corrupt index file: ")


def _check_finite(ids, indptr, values, context: str = "") -> None:
    """DataFormatError unless every value of the CSR rows is finite; the
    error names the case of the first value that is not."""
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        row = int(np.searchsorted(indptr, bad[0], side="right")) - 1
        raise DataFormatError(f"{context}case {ids[row]}: value {values[bad[0]]} is not finite")


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


def _snapshot(x, order: np.ndarray | slice):
    """The rows of the CSR matrix x in the given order, with their squared
    norms; the identity order, slice(None), keeps x itself."""
    if isinstance(order, slice):
        return x, _row_norms(x)
    sq = _row_norms(x)[order]
    return _take(x, order), sq
