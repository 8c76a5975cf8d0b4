from math import comb

import numpy as np
import pytest

from casehash import (
    DataFormatError,
    HashCode,
    HashIndex,
    LshPlanes,
    hamming_ball,
    hamming_distance,
)
from casehash.network import inner_product

from conftest import make_case, random_cases


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


class TestPersistence:
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
