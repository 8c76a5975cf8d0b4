"""Property tests for HashIndex: retrieval against a brute-force oracle and
byte-exact persistence.

Feature values are small integers, so every squared distance is an exact
integer in floating point and the index's distances (norms expanded as
|x|^2 - 2<x, q> + |q|^2) must equal the oracle's direct norms bit for bit.
Codes are drawn as a few bit flips around two fixed centres, so Hamming
balls of radius 0-2 hold something; at r=70 the codes span two words.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casehash import HashCode, HashIndex, SparseCase, SparseVector, hamming_distance
from casehash.sparse import cases_to_csr

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

    def __init__(self, r, table, rows=()):
        self.r = r
        self.table = table
        self.rows = list(rows)

    def code_batch(self, cases) -> np.ndarray:
        return np.array([self.table[c.id].words for c in cases],
                        dtype=np.uint64).reshape(len(cases), (self.r + 63) // 64)

    def code_rows(self, x) -> np.ndarray:
        assert (x != cases_to_csr(self.rows, DIM)).nnz == 0
        return self.code_batch(self.rows)


def operations(r):
    insert = st.tuples(st.just("insert"), st.integers(0, 30), features, code_specs(r))
    remove = st.tuples(st.just("remove"), st.integers(0, 10 ** 6))
    recode = st.tuples(st.just("recode"), st.lists(code_specs(r), min_size=1, max_size=8))
    return st.lists(st.one_of(insert, insert, remove, recode), max_size=40)


def queries(r):
    return st.lists(st.tuples(features, code_specs(r), st.integers(1, 8), st.integers(0, 2),
                              st.none() | st.integers(1, 10)), min_size=1, max_size=5)


def dense(case) -> np.ndarray:
    return case.features.to_dense()


def expected_retrieval(stored, query, q_code, top_n, max_radius, max_candidates):
    """Brute-force Hamming filter plus an exact rerank by (distance, id)."""
    d_h = {cid: hamming_distance(code, q_code) for cid, (_, code) in stored.items()}
    radius, truncated = max_radius, False
    for t in range(max_radius + 1):
        n = sum(1 for d in d_h.values() if d <= t)
        if n >= top_n:
            radius = t
            break
        if max_candidates is not None and n >= max_candidates:
            radius, truncated = t, True
            break
    cands = [cid for cid, d in d_h.items() if d <= radius]
    return (*exact_top(stored, query, cands, top_n), len(cands), radius, truncated)


def exact_top(stored, query, cands, top_n):
    """The top_n candidates by (Euclidean distance, id), with their distances."""
    dist = {cid: float(np.sqrt(np.sum((dense(stored[cid][0]) - dense(query)) ** 2)))
            for cid in cands}
    ranked = sorted(cands, key=lambda cid: (dist[cid], cid))[:top_n]
    return ranked, [dist[cid] for cid in ranked]


def run_operations(r, initial, ops):
    """Apply ops to a fresh index and to a dict model of it; return both."""
    stored = {}
    table = {}
    for cid, feats, spec in initial:
        if cid not in table:
            table[cid] = make_code(r, spec)
            stored[cid] = (make_case(cid, feats, label=cid % 3), table[cid])
    if stored:
        idx = HashIndex.build([case for case, _ in stored.values()], TableCoder(r, table))
    else:
        idx = HashIndex(r=r, dim=DIM)
    for op in ops:
        if op[0] == "insert":
            _, cid, feats, spec = op
            case, code = make_case(cid, feats, label=cid % 3), make_code(r, spec)
            if cid in stored:
                with pytest.raises(KeyError):
                    idx.insert(case, code)
                continue
            idx.insert(case, code)
            stored[cid] = (case, code)
        elif op[0] == "remove":
            if not stored:
                continue
            cid = sorted(stored)[op[1] % len(stored)]
            assert idx.remove(cid) == stored.pop(cid)[0]
        else:
            specs = op[1]
            new = {cid: make_code(r, specs[k % len(specs)])
                   for k, cid in enumerate(sorted(stored))}
            # stored keeps insertion order, which is the index's row order
            rows = [case for case, _ in stored.values()]
            changed = idx.replace_codes(TableCoder(r, new, rows))
            assert changed == sum(new[cid] != code for cid, (_, code) in stored.items())
            stored = {cid: (case, new[cid]) for cid, (case, _) in stored.items()}
    return idx, stored


def check_bit_balance(idx):
    """stats()' per-bit balance against a brute-force mean over the signs of
    every stored code."""
    signs = np.array([idx.code(cid).to_signs() for cid in idx.ids()]).reshape(-1, idx.r)
    want = (signs > 0).sum(axis=0) / max(len(signs), 1)
    assert idx.stats()["bit_balance"] == want.tolist()


def check_against_oracle(r, idx, stored, qs):
    assert idx.ids() == sorted(stored)
    for cid, (case, code) in stored.items():
        assert idx.case(cid) == case
        assert idx.code(cid) == code
    for k, (feats, spec, top_n, max_radius, max_candidates) in enumerate(qs):
        query, q_code = make_case(1000 + k, feats), make_code(r, spec)
        for radius in range(3):
            assert idx.candidates_within(q_code, radius) == {
                cid for cid, (_, code) in stored.items()
                if hamming_distance(code, q_code) <= radius}
        res = idx.retrieve(query, q_code, top_n, max_radius=max_radius,
                           max_candidates=max_candidates)
        ids, dists, n_cands, radius, truncated = expected_retrieval(
            stored, query, q_code, top_n, max_radius, max_candidates)
        assert res.ids == ids
        assert res.distances.tolist() == dists
        assert (res.n_candidates, res.radius_used, res.truncated) == (n_cands, radius, truncated)
        lin = idx.linear_scan(query, top_n)
        assert (lin.ids, lin.distances.tolist()) == exact_top(stored, query, stored, top_n)


@pytest.mark.parametrize("r", [6, 70])
def test_retrieve_matches_bruteforce_after_mutations(r):
    @settings(max_examples=60, deadline=None)
    @given(initial=st.lists(st.tuples(st.integers(0, 30), features, code_specs(r)),
                            max_size=12),
           ops=operations(r), qs=queries(r))
    def check(initial, ops, qs):
        idx, stored = run_operations(r, initial, ops)
        check_bit_balance(idx)
        check_against_oracle(r, idx, stored, qs)

    check()


@pytest.mark.parametrize("r", [6, 70])
def test_save_load_save_is_byte_identical(r):
    @settings(max_examples=40, deadline=None)
    @given(initial=st.lists(st.tuples(st.integers(0, 30), features, code_specs(r)),
                            max_size=12),
           ops=operations(r), qs=queries(r))
    def check(initial, ops, qs):
        idx, stored = run_operations(r, initial, ops)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.idx", Path(tmp) / "b.idx"
            idx.save(first)
            back = HashIndex.load(first)
            back.save(second)
            assert first.read_bytes() == second.read_bytes()
        assert back.n_buckets == idx.n_buckets
        check_bit_balance(back)
        check_against_oracle(r, back, stored, qs)

    check()
