"""Property tests for HashIndex: retrieval against a brute-force oracle and
byte-exact persistence.

Feature values are small integers, so every squared distance is an exact
integer in floating point and the index's distances (norms expanded as
|x|^2 - 2<x, q> + |q|^2) must equal the oracle's direct norms bit for bit.
Codes are drawn as a few bit flips around two fixed centres, so Hamming
balls of radius 0-2 hold something; at r=70 the codes span two words, and
both centres set bit 63. Query radii run up to r, so a query can reach every
stored code. The file tests run at the feature dims where the file's count
and index widths change, and truncate files of each width at every byte.
"""

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casehash import (DataFormatError, HashCode, HashIndex, LshPlanes, SparseCase, SparseVector,
                      hamming_distance)
from casehash.sparse import cases_to_csr

from conftest import narrowest, to_dense, to_signs

DIM = 5
CENTRES = {6: (0b101100, 0b010011),
           70: ((1 << 69) | (1 << 64) | 0xF0F0F0F0F0F0F0F0, (1 << 63) | 0x0F0F0F)}

feature_values = st.sampled_from([-2.0, -1.0, 1.0, 2.0, 3.0])
features = st.dictionaries(st.integers(0, DIM - 1), feature_values, max_size=DIM)


def code_specs(r):
    return st.tuples(st.sampled_from(CENTRES[r]), st.lists(st.integers(0, r - 1), max_size=3))


def make_code(r, spec) -> HashCode:
    key, flips = spec
    for b in flips:
        key ^= 1 << b
    return HashCode(r=r, words=tuple((key >> (64 * i)) & (2 ** 64 - 1)
                                     for i in range((r + 63) // 64)))


def make_case(case_id, feats, label=0) -> SparseCase:
    return SparseCase(id=case_id, features=SparseVector.from_pairs(DIM, feats.items()),
                      label=label)


class TableCoder:
    """A coder whose codes come from a table keyed by case id. code_rows
    codes an index's feature matrix, given the cases in its row order, and
    checks that the matrix rows hold those cases' features."""

    def __init__(self, r, table, rows):
        self.r = r
        self.table = table
        self.rows = list(rows)

    def code(self, case) -> HashCode:
        return self.table[case.id]

    def code_rows(self, x) -> np.ndarray:
        assert (x != cases_to_csr(self.rows, DIM)).nnz == 0
        return np.array([self.table[c.id].words for c in self.rows],
                        dtype=np.uint64).reshape(len(self.rows), (self.r + 63) // 64)


def operations(r, min_size=0, max_size=40):
    insert = st.tuples(st.just("insert"), st.integers(0, 30), features, code_specs(r))
    remove = st.tuples(st.just("remove"), st.integers(0, 10 ** 6))
    recode = st.tuples(st.just("recode"), st.lists(code_specs(r), min_size=1, max_size=8))
    return st.lists(st.one_of(insert, insert, remove, recode), min_size=min_size,
                    max_size=max_size)


def queries(r):
    return st.lists(st.tuples(features, code_specs(r), st.integers(1, 8), st.integers(0, r)),
                    min_size=1, max_size=5)


def dense(case) -> np.ndarray:
    return to_dense(case.features)


def expected_retrieval(stored, query, q_code, top_n, max_radius):
    """Brute-force Hamming filter plus an exact rerank by (distance, id)."""
    d_h = {cid: hamming_distance(code, q_code) for cid, (_, code) in stored.items()}
    radius = next((t for t in range(max_radius + 1)
                   if sum(1 for d in d_h.values() if d <= t) >= top_n), max_radius)
    cands = [cid for cid, d in d_h.items() if d <= radius]
    return (*exact_top(stored, query, cands, top_n), len(cands), radius)


def exact_top(stored, query, cands, top_n):
    """The top_n candidates by (Euclidean distance, id), with their distances."""
    dist = {cid: float(np.sqrt(np.sum((dense(stored[cid][0]) - dense(query)) ** 2)))
            for cid in cands}
    ranked = sorted(cands, key=lambda cid: (dist[cid], cid))[:top_n]
    return ranked, [dist[cid] for cid in ranked]


def fresh_index(r, stored):
    """A built index of stored's cases with their codes, empty when stored is."""
    if not stored:
        return HashIndex(r=r, dim=DIM)
    cases = [case for case, _ in stored.values()]
    idx = HashIndex.build(cases, TableCoder(r, {cid: code for cid, (_, code) in stored.items()},
                                            cases))
    check_code_order(idx)
    return idx


def check_code_order(idx):
    """A regrouped index holds its rows in code order: its buckets, taken in
    table order, are consecutive ascending ranges that cover every row, and
    each range's rows hold that bucket's code."""
    assert [row for bucket in idx._buckets for row in bucket.tolist()] == list(range(len(idx)))
    for code, bucket in zip(idx._table, idx._buckets):
        assert (idx._words[bucket] == code).all()


def run_operations(r, initial, ops, probes=()):
    """Apply ops to a fresh index and to a dict model of it; return both."""
    stored = {}
    for cid, feats, spec in initial:
        if cid not in stored:
            stored[cid] = (make_case(cid, feats, label=cid % 3), make_code(r, spec))
    idx = fresh_index(r, stored)
    return idx, apply_operations(r, idx, stored, ops, probes)


def apply_operations(r, idx, stored, ops, probes=()):
    """Apply ops to idx and to stored, its dict model; return the model.
    Given probes, after each op check one of them, in turn, against the
    model: reads between writes see buckets an insert extended and
    snapshots a write dropped."""
    for k, op in enumerate(ops):
        if op[0] == "insert":
            _, cid, feats, spec = op
            case, code = make_case(cid, feats, label=cid % 3), make_code(r, spec)
            if cid in stored:
                with pytest.raises(KeyError):
                    idx.insert(case, code)
            else:
                idx.insert(case, code)
                stored[cid] = (case, code)
        elif op[0] == "remove":
            if stored:
                cid = sorted(stored)[op[1] % len(stored)]
                assert idx.remove(cid) == stored.pop(cid)[0]
                check_code_order(idx)
        else:
            specs = op[1]
            new = {cid: make_code(r, specs[k % len(specs)])
                   for k, cid in enumerate(sorted(stored))}
            # the index codes its snapshot in its own row order
            rows = [stored[cid][0] for cid in idx._ids.tolist()]
            changed = idx.replace_codes(TableCoder(r, new, rows))
            assert changed == sum(new[cid] != code for cid, (_, code) in stored.items())
            stored = {cid: (case, new[cid]) for cid, (case, _) in stored.items()}
            check_code_order(idx)
        if probes:
            check_query(r, idx, stored, probes[k % len(probes)], k)
    return stored


def check_stats(idx):
    """stats() against a brute-force count of the stored codes: a bucket per
    distinct code, the largest code count, and per bit the mean over the
    signs of every stored code."""
    codes = [idx.code(cid) for cid in idx.ids()]
    counts = Counter(code.words for code in codes)
    signs = np.array([to_signs(code) for code in codes]).reshape(-1, idx.r)
    want = (signs > 0).sum(axis=0) / max(len(signs), 1)
    assert idx.stats() == {"n_buckets": len(counts),
                           "largest_bucket": max(counts.values(), default=0),
                           "bit_balance": want.tolist()}
    assert idx.n_buckets == len(counts)


def check_against_oracle(r, idx, stored, qs):
    assert idx.ids() == sorted(stored)
    for cid, (case, code) in stored.items():
        assert idx.case(cid) == case
        assert idx.labels([cid])[0] == case.label
        assert idx.code(cid) == code
    for k, q in enumerate(qs):
        query = check_query(r, idx, stored, q, k, radii=(0, 1, 2))
        lin = idx.linear_scan(query, top_n=q[2])
        assert (lin.ids, lin.distances.tolist()) == exact_top(stored, query, stored, q[2])
        check_labels(lin, stored)


def check_query(r, idx, stored, q, k, radii=()):
    """One drawn query's candidates_within, at its max_radius and the given
    radii, and its retrieve, labels included, against the model; returns
    the query case."""
    feats, spec, top_n, max_radius = q
    query, q_code = make_case(1000 + k, feats), make_code(r, spec)
    for radius in {*radii, max_radius}:
        assert idx.candidates_within(q_code, radius) == {
            cid for cid, (_, code) in stored.items()
            if hamming_distance(code, q_code) <= radius}
    res = idx.retrieve(query, q_code, top_n, max_radius=max_radius)
    ids, dists, n_cands, radius = expected_retrieval(stored, query, q_code, top_n, max_radius)
    assert res.ids == ids
    assert res.distances.tolist() == dists
    assert (res.n_candidates, res.radius_used) == (n_cands, radius)
    check_labels(res, stored)
    return query


def check_labels(res, stored):
    """An answer's labels are its ids' stored labels, as int64."""
    assert res.labels.dtype == np.int64
    assert res.labels.tolist() == [stored[cid][0].label for cid in res.ids]


@pytest.mark.parametrize("r", [6, 70])
def test_retrieve_matches_bruteforce_after_mutations(r):
    # a length drawn first: a plain list seldom runs past a dozen ops
    @settings(max_examples=30, deadline=None)
    @given(initial=st.lists(st.tuples(st.integers(0, 30), features, code_specs(r)),
                            max_size=12),
           ops=st.integers(0, 80).flatmap(lambda n: operations(r, n, n)), qs=queries(r))
    def check(initial, ops, qs):
        idx, stored = run_operations(r, initial, ops, probes=qs)
        check_stats(idx)
        check_against_oracle(r, idx, stored, qs)

    check()


@pytest.mark.parametrize("r", [6, 70])
def test_save_load_save_is_byte_identical(r):
    """A loaded index saves the bytes it was loaded from, answers as the
    saved one did, and after a second batch of writes behaves, and saves,
    exactly as a built index of the same cases and codes."""
    @settings(max_examples=40, deadline=None)
    @given(initial=st.lists(st.tuples(st.integers(0, 30), features, code_specs(r)),
                            max_size=12),
           ops=operations(r), more=operations(r), qs=queries(r))
    def check(initial, ops, more, qs):
        idx, stored = run_operations(r, initial, ops)
        with tempfile.TemporaryDirectory() as tmp:
            saved, loaded, written, built = (Path(tmp) / f"{name}.idx" for name in
                                             ("saved", "loaded", "written", "built"))
            idx.save(saved)
            back = HashIndex.load(saved)
            check_code_order(back)
            back.save(loaded)
            assert saved.read_bytes() == loaded.read_bytes()
            assert back.n_buckets == idx.n_buckets
            check_stats(back)
            check_against_oracle(r, back, stored, qs)

            stored = apply_operations(r, back, stored, more)
            check_stats(back)
            check_against_oracle(r, back, stored, qs)
            back.save(written)
            fresh_index(r, stored).save(built)
            assert written.read_bytes() == built.read_bytes()

    check()


# the dims where an index file's count or feature-index width changes
WIDTH_EDGES = [1, 2, 255, 256, 257, 65535, 65536, 65537]


def wide_features(dim):
    """Feature dicts at a dim, their indices drawn at either end of the range
    as often as anywhere in it."""
    index = st.one_of(st.integers(0, min(2, dim - 1)), st.integers(max(dim - 3, 0), dim - 1),
                      st.integers(0, dim - 1))
    return st.dictionaries(index, feature_values, max_size=4)


def wide_index(dim, built, inserted):
    """An r=6 index at dim of the built feature dicts, coded by LSH planes,
    ids descending in build order, then the inserted ones with their codes,
    ids ascending: its rows need sorting into file order."""
    cases = [SparseCase(id=2 * (len(built) - k), label=k % 3,
                        features=SparseVector.from_pairs(dim, feats.items()))
             for k, feats in enumerate(built)]
    idx = HashIndex.build(cases, LshPlanes.sample(6, dim, seed=1)) if cases else HashIndex(6, dim)
    for k, (feats, spec) in enumerate(inserted):
        idx.insert(SparseCase(id=2 * k + 1, label=k % 3,
                              features=SparseVector.from_pairs(dim, feats.items())),
                   make_code(6, spec))
    return idx


def layout_length(idx) -> int:
    """The byte length the documented layout gives an index file."""
    n, total = len(idx), sum(idx.case(cid).features.nnz for cid in idx.ids())
    count, index = np.dtype(narrowest(idx.dim)), np.dtype(narrowest(idx.dim - 1))
    return (4 + 8 * 4 + 8 * n * (2 + (idx.r + 63) // 64) + count.itemsize * n
            + (index.itemsize + 8) * total)


@pytest.mark.parametrize("dim", WIDTH_EDGES)
def test_file_widths_round_trip(dim):
    """At every width edge: save, load and save give the same bytes, the file
    has the documented length, and the loaded index holds the same cases and
    codes and answers every query as the saved one did."""
    @settings(max_examples=15, deadline=None)
    @given(built=st.lists(wide_features(dim), max_size=8),
           inserted=st.lists(st.tuples(wide_features(dim), code_specs(6)), max_size=6),
           qs=st.lists(st.tuples(wide_features(dim), code_specs(6), st.integers(1, 8),
                                 st.integers(0, 6)), min_size=1, max_size=3))
    def check(built, inserted, qs):
        idx = wide_index(dim, built, inserted)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.idx"), Path(tmp, "second.idx")
            idx.save(first)
            back = HashIndex.load(first)
            back.save(second)
            assert first.read_bytes() == second.read_bytes()
            assert len(first.read_bytes()) == layout_length(idx)
        assert back.ids() == idx.ids()
        for cid in idx.ids():
            assert back.case(cid) == idx.case(cid)
            assert back.code(cid) == idx.code(cid)
            assert back.labels([cid]).tolist() == idx.labels([cid]).tolist()
        for k, (feats, spec, top_n, max_radius) in enumerate(qs):
            query = SparseCase(id=1000 + k, label=0,
                               features=SparseVector.from_pairs(dim, feats.items()))
            for a, b in ((idx.retrieve(query, make_code(6, spec), top_n, max_radius),
                          back.retrieve(query, make_code(6, spec), top_n, max_radius)),
                         (idx.linear_scan(query, top_n), back.linear_scan(query, top_n))):
                assert (a.ids, a.n_candidates, a.radius_used) == (b.ids, b.n_candidates,
                                                                  b.radius_used)
                assert a.distances.tobytes() == b.distances.tobytes()

    check()


@pytest.mark.parametrize("dim", [4, 300])
def test_every_prefix_is_rejected(dim):
    """Every proper prefix of a file whose counts and indices are one byte
    wide (dim 4) or two (dim 300) raises DataFormatError."""
    @settings(max_examples=10, deadline=None)
    @given(built=st.lists(wide_features(dim), min_size=1, max_size=5),
           inserted=st.lists(st.tuples(wide_features(dim), code_specs(6)), max_size=3))
    def check(built, inserted):
        idx = wide_index(dim, built, inserted)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "cases.idx")
            idx.save(path)
            data = path.read_bytes()
            assert len(data) == layout_length(idx)
            HashIndex.load(path)
            for cut in range(len(data)):
                path.write_bytes(data[:cut])
                with pytest.raises(DataFormatError):
                    HashIndex.load(path)

    check()
