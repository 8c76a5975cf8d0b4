from collections import Counter
from math import comb

import numpy as np
import pytest

from casehash import (
    DataFormatError,
    HashCode,
    HashIndex,
    Hyperparams,
    LshPlanes,
    hamming_distance,
    init_params,
)
from casehash import index as index_module
from casehash.network import CODE_BLOCK_ROWS, inner_product
from casehash.sparse import cases_to_csr

from conftest import hamming_ball, make_case, random_cases


def random_code(rng, r):
    return HashCode.from_signs(rng.normal(size=r))


class TestHammingDistance:
    def test_identity_with_inner_product(self, rng):
        for r in (4, 16, 36):
            for _ in range(50):
                a, b = random_code(rng, r), random_code(rng, r)
                assert hamming_distance(a, b) == (r - inner_product(a, b)) // 2

    def test_metric_basics(self, rng):
        a, b = random_code(rng, 36), random_code(rng, 36)
        assert hamming_distance(a, a) == 0
        assert hamming_distance(a, b) == hamming_distance(b, a)

    def test_width_mismatch(self, rng):
        with pytest.raises(ValueError):
            hamming_distance(random_code(rng, 8), random_code(rng, 16))


class TestHammingBall:
    @pytest.mark.parametrize("r", [4, 16, 36])
    def test_level_counts(self, rng, r):
        center = random_code(rng, r)
        ball1 = list(hamming_ball(center, 1))
        ball2 = list(hamming_ball(center, 2))
        assert len(ball1) == 1 + r
        assert len(ball2) == 1 + r + comb(r, 2)
        assert len(set(ball2)) == len(ball2)  # all distinct

    def test_members_at_right_distance(self, rng):
        center = random_code(rng, 16)
        for code in hamming_ball(center, 2):
            assert hamming_distance(center, code) <= 2

    def test_radius_zero(self, rng):
        center = random_code(rng, 8)
        assert list(hamming_ball(center, 0)) == [center]


def small_index(rng, n=30, r=8, dim=10):
    cases = random_cases(rng, n, dim=dim, nnz=4)
    planes = LshPlanes.sample(r, dim, seed=3)
    return HashIndex.build(cases, planes), cases, planes


class TestIndexMutation:
    def test_build_and_lookup(self, rng):
        idx, cases, planes = small_index(rng)
        assert len(idx) == 30
        assert idx.ids() == [c.id for c in cases]
        assert idx.case(5) == cases[5]
        assert idx.code(5) == planes.code(cases[5])

    def test_duplicate_id_rejected(self, rng):
        idx, cases, planes = small_index(rng)
        with pytest.raises(KeyError):
            idx.insert(cases[0], planes.code(cases[0]))

    def test_dim_mismatch_rejected(self, rng):
        idx, _, planes = small_index(rng)
        bad = make_case(99, [(0, 1.0)], case_id=1000)
        with pytest.raises(DataFormatError):
            idx.insert(bad, HashCode.from_signs(np.ones(8)))

    def test_code_width_rejected(self, rng):
        idx, _, _ = small_index(rng)
        bad = make_case(10, [(0, 1.0)], case_id=1000)
        with pytest.raises(ValueError):
            idx.insert(bad, HashCode.from_signs(np.ones(9)))

    def test_remove(self, rng):
        idx, cases, _ = small_index(rng)
        removed = idx.remove(7)
        assert removed == cases[7]
        assert 7 not in idx
        assert len(idx) == 29
        with pytest.raises(KeyError):
            idx.remove(7)

    def test_remove_every_case(self, rng):
        idx, cases, planes = small_index(rng, n=5)
        for case in cases:
            idx.remove(case.id)
        assert len(idx) == 0 and idx.n_buckets == 0
        assert idx.retrieve(cases[0], planes.code(cases[0]), top_n=3).ids == []

    def test_remove_then_retrieve_consistent(self, rng):
        idx, cases, planes = small_index(rng)
        idx.remove(0)
        res = idx.linear_scan(cases[0], 5)
        assert 0 not in res.ids

    def test_replace_codes_rebuilds_buckets(self, rng):
        idx, cases, _ = small_index(rng)
        other = LshPlanes.sample(8, 10, seed=99)
        idx.replace_codes(other)
        assert idx.code(0) == other.code(cases[0])
        got = idx.candidates_within(other.code(cases[0]), 0)
        assert cases[0].id in got

    def test_replace_codes_counts_changed_codes(self, rng):
        idx, cases, planes = small_index(rng)
        assert idx.replace_codes(planes) == 0
        other = LshPlanes.sample(8, 10, seed=99)
        want = sum(planes.code(c) != other.code(c) for c in cases)
        assert want > 0
        assert idx.replace_codes(other) == want

    @pytest.mark.parametrize("kind", ["network", "first_order", "lsh"])
    def test_replace_codes_codes_the_feature_matrix(self, rng, monkeypatch, kind):
        idx, cases, planes = small_index(rng)
        if kind == "lsh":
            coder = LshPlanes.sample(8, 10, seed=99)
        else:
            hyper = Hyperparams(k_w=6, k_v=5, r=8, l=2, hidden=7,
                                first_order=kind == "first_order")
            coder = init_params(hyper, d=10, seed=4)
        extra = make_case(10, [(2, 0.5)], case_id=30)
        idx.insert(extra, planes.code(extra))  # drops the feature snapshot
        cases = cases + [extra]
        idx.replace_codes(coder)
        assert [idx.code(c.id).words for c in cases] == [
            tuple(row) for row in coder.code_batch(cases).tolist()]

        calls = []
        real = index_module.cases_to_csr
        monkeypatch.setattr(index_module, "cases_to_csr",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        got = idx.retrieve(cases[0], idx.code(cases[0].id), top_n=3)
        assert got.ids and calls == []  # the recode's snapshot serves it

    def test_replace_codes_checks_the_coder_dim(self, rng):
        idx, _, _ = small_index(rng)
        with pytest.raises(DataFormatError):
            idx.replace_codes(LshPlanes.sample(8, 11, seed=1))
        with pytest.raises(DataFormatError):
            idx.replace_codes(init_params(Hyperparams(k_w=6, k_v=5, r=8, l=2, hidden=7),
                                          d=11, seed=1))

    def test_network_codes_over_several_blocks(self, rng):
        cases = random_cases(rng, CODE_BLOCK_ROWS + 5, dim=10, nnz=3)
        params = init_params(Hyperparams(k_w=6, k_v=5, r=12, l=2, hidden=7), d=10, seed=4)
        idx = HashIndex.build(cases, params)
        assert all(idx.code(c.id) == params.code(c) for c in cases)
        before = {c.id: idx.code(c.id) for c in cases}
        params.layers[-1].b += rng.normal(scale=0.3, size=12)
        changed = idx.replace_codes(params)
        assert all(idx.code(c.id) == params.code(c) for c in cases)
        assert 0 < changed == sum(idx.code(cid) != code for cid, code in before.items())


class TestCandidates:
    def test_equals_bruteforce_filter(self, rng):
        idx, cases, planes = small_index(rng, n=60, r=6)
        codes = {c.id: planes.code(c) for c in cases}
        for radius in (0, 1, 2):
            for q in cases[:10]:
                got = idx.candidates_within(codes[q.id], radius)
                want = {cid for cid, code in codes.items()
                        if hamming_distance(code, codes[q.id]) <= radius}
                assert got == want


class TestRetrieve:
    def test_matches_linear_scan_when_ball_covers_all(self, rng):
        # asking for every case forces expansion to the full radius, so the
        # rerank sees the whole store and must equal the oracle exactly
        idx, cases, planes = small_index(rng, n=25, r=4)
        for q in cases[:8]:
            full = idx.retrieve(q, planes.code(q), top_n=25, max_radius=4)
            lin = idx.linear_scan(q, top_n=25)
            assert full.ids == lin.ids
            assert np.array_equal(full.distances, lin.distances)  # same kernel

    def test_self_retrieval_first(self, rng):
        idx, cases, planes = small_index(rng)
        q = cases[3]
        res = idx.retrieve(q, planes.code(q), top_n=3)
        assert res.ids[0] == q.id
        assert res.distances[0] == 0.0

    def test_distances_sorted_and_tie_by_id(self):
        # three identical cases: distance ties resolved by ascending id
        cases = [make_case(4, [(0, 1.0)], case_id=i) for i in (9, 2, 5)]
        planes = LshPlanes.sample(4, 4, seed=0)
        idx = HashIndex.build(cases, planes)
        q = make_case(4, [(0, 1.0)], case_id=100)
        res = idx.retrieve(q, planes.code(q), top_n=3)
        assert res.ids == [2, 5, 9]
        lin = idx.linear_scan(q, 3)
        assert lin.ids == [2, 5, 9]

    def test_radius_grows_until_enough(self, rng):
        idx, cases, planes = small_index(rng, n=5, r=8)
        q = cases[0]
        res = idx.retrieve(q, planes.code(q), top_n=5, max_radius=2)
        assert res.radius_used <= 2
        assert res.n_candidates >= len(res.ids)

    def test_empty_result_when_nothing_close(self, rng):
        cases = [make_case(4, [(0, 1.0)], case_id=0)]
        planes = LshPlanes.sample(16, 4, seed=0)
        idx = HashIndex.build(cases, planes)
        far = idx.code(0).flip(*range(16))
        q = make_case(4, [(1, 1.0)], case_id=5)
        res = idx.retrieve(q, far, top_n=1, max_radius=2)
        assert res.ids == []
        assert res.n_candidates == 0

    def test_max_candidates_truncates_between_levels(self, rng):
        # every case hashes identically, so level 0 already exceeds the cap
        cases = [make_case(4, [(0, 1.0)], case_id=i) for i in range(20)]
        planes = LshPlanes.sample(4, 4, seed=0)
        idx = HashIndex.build(cases, planes)
        q = make_case(4, [(0, 1.0)], case_id=99)
        res = idx.retrieve(q, planes.code(q), top_n=50, max_radius=2,
                           max_candidates=10)
        assert res.truncated
        assert res.radius_used == 0
        assert res.n_candidates == 20  # the level itself is never cut short

    def test_query_dim_checked(self, rng):
        idx, _, planes = small_index(rng)
        q = make_case(3, [(0, 1.0)], case_id=50)
        with pytest.raises(DataFormatError):
            idx.retrieve(q, HashCode.from_signs(np.ones(8)), top_n=1)

    def test_rerank_distance_is_euclidean(self, rng):
        idx, cases, planes = small_index(rng)
        q = cases[0]
        res = idx.linear_scan(q, top_n=len(cases))
        qd = q.features.to_dense()
        for cid, dist in zip(res.ids, res.distances):
            want = float(np.linalg.norm(idx.case(cid).features.to_dense() - qd))
            assert dist == pytest.approx(want, abs=1e-9)


def reference_save(idx, path):
    """The index file written case by case, as the layout documents it."""
    ids = idx.ids()
    with open(path, "wb") as fh:
        fh.write(b"CHIX")
        np.array([1, idx.r, idx.dim, len(ids)], dtype="<i8").tofile(fh)
        np.array(ids, dtype="<i8").tofile(fh)
        for i in ids:
            np.array(idx.code(i).words, dtype="<u8").tofile(fh)
        np.array([idx.case(i).label for i in ids], dtype="<i8").tofile(fh)
        np.array([idx.case(i).features.nnz for i in ids], dtype="<i8").tofile(fh)
        for i in ids:
            np.array(idx.case(i).features.indices, dtype="<i8").tofile(fh)
            np.array(idx.case(i).features.values, dtype="<f8").tofile(fh)


class TestPersistence:
    @pytest.mark.parametrize("r", [8, 70])
    def test_save_matches_case_by_case_layout(self, rng, tmp_path, r):
        cases = random_cases(rng, 30, dim=10, nnz=4) + [make_case(10, [], case_id=99)]
        idx = HashIndex.build(cases[::-1], LshPlanes.sample(r, 10, seed=2))
        idx.save(tmp_path / "block.idx")
        reference_save(idx, tmp_path / "loop.idx")
        assert (tmp_path / "block.idx").read_bytes() == (tmp_path / "loop.idx").read_bytes()

    def test_round_trip(self, rng, tmp_path):
        idx, cases, planes = small_index(rng)
        p = tmp_path / "cases.idx"
        idx.save(p)
        back = HashIndex.load(p)
        assert len(back) == len(idx)
        assert back.ids() == idx.ids()
        for cid in idx.ids():
            assert back.case(cid) == idx.case(cid)
            assert back.code(cid) == idx.code(cid)
        q = cases[4]
        a = idx.retrieve(q, planes.code(q), top_n=5)
        b = back.retrieve(q, planes.code(q), top_n=5)
        assert a.ids == b.ids

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.idx"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataFormatError):
            HashIndex.load(p)

    def test_truncated_file_rejected(self, rng, tmp_path):
        idx, _, _ = small_index(rng)
        p = tmp_path / "cases.idx"
        idx.save(p)
        data = p.read_bytes()
        for cut in (len(data) // 2, len(data) - 1, 20):
            p.write_bytes(data[:cut])
            with pytest.raises(DataFormatError, match="truncated"):
                HashIndex.load(p)


def two_case_file(tmp_path):
    """A 2-case, r=8, dim=4 index file and the byte offsets of its fields."""
    cases = [make_case(4, [(0, 1.0), (2, 2.0)], label=1, case_id=0),
             make_case(4, [(1, 3.0)], label=0, case_id=1)]
    idx = HashIndex(r=8, dim=4)
    for case in cases:
        idx.insert(case, HashCode(r=8, words=(case.id + 5,)))
    path = tmp_path / "two.idx"
    idx.save(path)
    # magic, 4 header words, then 2 ids, 2 code words, 2 labels, 2 counts
    head = 4 + 8 * 4
    offsets = {"id1": head + 8, "word0": head + 16, "nnz0": head + 48,
               "idx0": head + 64, "idx1": head + 72, "val0": head + 80}
    return path, offsets


def patch(path, offset, value, dtype="<i8"):
    data = bytearray(path.read_bytes())
    data[offset:offset + 8] = np.array([value], dtype=dtype).tobytes()
    path.write_bytes(bytes(data))


class TestLoadChecks:
    @pytest.mark.parametrize("field, value, dtype, match", [
        ("idx1", 4, "<i8", "out of range"),
        ("idx0", -1, "<i8", "ascending|out of range"),
        ("idx1", 0, "<i8", "ascending"),
        ("val0", 0.0, "<f8", "nonzero"),
        ("id1", 0, "<i8", "duplicate"),
        ("word0", 1 << 9, "<u8", "high bits"),
        ("nnz0", -1, "<i8", "negative count"),
        ("nnz0", 1 << 40, "<i8", "truncated"),
    ])
    def test_corrupt_file_rejected(self, tmp_path, field, value, dtype, match):
        path, offsets = two_case_file(tmp_path)
        HashIndex.load(path)  # intact file loads
        patch(path, offsets[field], value, dtype)
        with pytest.raises(DataFormatError, match=match):
            HashIndex.load(path)

    def test_cases_without_features_round_trip(self, tmp_path):
        cases = [make_case(4, [], case_id=3), make_case(4, [(1, 2.0)], case_id=5),
                 make_case(4, [], case_id=7)]
        idx = HashIndex.build(cases, LshPlanes.sample(8, 4, seed=1))
        path = tmp_path / "empty-rows.idx"
        idx.save(path)
        back = HashIndex.load(path)
        assert [back.case(c.id) for c in cases] == cases
        q = make_case(4, [(1, 2.0)], case_id=9)
        assert back.linear_scan(q, 3).ids == [5, 3, 7]


class TestStats:
    @pytest.mark.parametrize("r", [8, 70])
    def test_match_stored_codes(self, rng, r):
        idx, cases, _ = small_index(rng, n=60, r=r)
        idx.remove(cases[4].id)
        extra = make_case(10, [(2, 1.0)], case_id=500)
        idx.insert(extra, idx.code(cases[0].id))
        codes = [idx.code(cid) for cid in idx.ids()]
        counts = Counter(code.words for code in codes)
        stats = idx.stats()
        assert stats["n_buckets"] == idx.n_buckets == len(counts)
        assert stats["largest_bucket"] == max(counts.values())
        signs = np.array([code.to_signs() for code in codes])
        assert stats["bit_balance"] == (signs > 0).mean(axis=0).tolist()

    def test_empty_index(self):
        assert HashIndex(r=4, dim=3).stats() == {
            "n_buckets": 0, "largest_bucket": 0, "bit_balance": [0.0] * 4}


class TestRowDots:
    def test_equal_scipy_row_indexing(self, rng):
        # zero-feature rows, repeated rows and any row order
        cases = random_cases(rng, 40, dim=12, nnz=5) + [make_case(12, [], case_id=40)]
        x = cases_to_csr(cases, 12)
        q = rng.normal(size=12)
        for rows in (np.arange(41), rng.permutation(41)[:17], np.array([40, 3, 3, 0])):
            assert np.array_equal(index_module._row_dots(x, rows, q), x[rows] @ q)
