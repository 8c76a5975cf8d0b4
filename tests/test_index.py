import gc
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

from conftest import (bit, flip, hamming_ball, make_case, narrowest, random_cases, same_csr,
                      to_dense, to_signs)


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


def expected_retrieval(idx, query, code, top_n, max_radius):
    """A brute-force Hamming filter over the stored codes, then the exact top
    ids among its candidates: (ids, candidate count, radius used)."""
    d_h = {cid: hamming_distance(idx.code(cid), code) for cid in idx.ids()}
    radius = next((t for t in range(max_radius + 1)
                   if sum(d <= t for d in d_h.values()) >= top_n), max_radius)
    ranked = idx.linear_scan(query, len(idx)).ids  # every case by (distance, id)
    ids = [cid for cid in ranked if d_h[cid] <= radius][:top_n]
    return ids, sum(d <= radius for d in d_h.values()), radius


def check_retrieval(idx, query, code, top_n, max_radius):
    res = idx.retrieve(query, code, top_n, max_radius=max_radius)
    assert (res.ids, res.n_candidates, res.radius_used) == expected_retrieval(
        idx, query, code, top_n, max_radius)


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

    def test_case_reads_every_stored_row(self, rng, tmp_path):
        idx, cases, planes = small_index(rng)
        stored = {c.id: c for c in cases}

        def check(index):
            assert index.ids() == sorted(stored)
            assert all(index.case(cid) == case for cid, case in stored.items())
            # rows follows the given order, which is neither id nor row order
            ids = list(stored)[::-1]
            x, labels = index.rows(ids)
            assert same_csr(x, cases_to_csr([stored[cid] for cid in ids], 10))
            assert labels.dtype == np.int64
            assert labels.tolist() == [stored[cid].label for cid in ids]

        for case in random_cases(rng, 4, dim=10, nnz=3, id_start=100) + [
                make_case(10, [], case_id=-1)]:
            idx.insert(case, planes.code(case))
            stored[case.id] = case
        check(idx)
        assert idx.remove(7) == stored.pop(7)
        check(idx)
        idx.save(tmp_path / "cases.idx")
        back = HashIndex.load(tmp_path / "cases.idx")
        check(back)
        extra = make_case(10, [(1, -2.0), (9, 0.5)], case_id=50)
        back.insert(extra, planes.code(extra))
        stored[extra.id] = extra
        assert back.remove(100) == stored.pop(100)
        check(back)

    def test_case_after_insert_converts_once(self, rng, monkeypatch):
        idx, cases, planes = small_index(rng)
        extra = make_case(10, [(2, 0.5)], case_id=30)
        idx.insert(extra, planes.code(extra))  # drops the feature snapshot
        calls = []
        real = index_module.cases_to_csr
        monkeypatch.setattr(index_module, "cases_to_csr",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        assert idx.case(30) == extra and idx.case(4) == cases[4]
        assert len(calls) == 1
        assert idx.retrieve(cases[0], planes.code(cases[0]), top_n=3).ids
        assert len(calls) == 1  # the snapshot case() rebuilt serves the query

    def test_duplicate_id_rejected(self, rng):
        idx, cases, planes = small_index(rng)
        with pytest.raises(KeyError):
            idx.insert(cases[0], planes.code(cases[0]))

    def test_absent_ids(self):
        cases = [make_case(10, [(k, 1.0)], case_id=cid) for k, cid in enumerate((10, 20, 30))]
        idx = HashIndex.build(cases, LshPlanes.sample(8, 10, seed=3))
        # below, between and above the stored ids
        for absent in (-5, 0, 15, 25, 31, 2 ** 62):
            assert absent not in idx
            for read in (idx.case, idx.code, idx.remove):
                with pytest.raises(KeyError):
                    read(absent)
            for read in (idx.labels, idx.rows):
                with pytest.raises(KeyError, match=str(absent)):
                    read([20, absent, 10])
        assert [cid in idx for cid in (10, 20, 30)] == [True] * 3
        assert len(idx) == 3
        empty = HashIndex(r=8, dim=10)
        assert 10 not in empty and empty.labels([]).tolist() == []
        with pytest.raises(KeyError):
            empty.labels([10])

    def test_labels_follow_the_given_ids(self, rng):
        idx, cases, _ = small_index(rng)
        ids = [c.id for c in cases][::-3] + [cases[0].id]
        got = idx.labels(ids)
        assert got.dtype == np.int64
        assert got.tolist() == [idx.labels([cid])[0] for cid in ids] == [
            next(c.label for c in cases if c.id == cid) for cid in ids]

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

    def test_duplicate_id_in_build_rejected(self, rng):
        cases = [make_case(10, [(0, 1.0)], case_id=4), make_case(10, [(1, 2.0)], case_id=3),
                 make_case(10, [(2, 3.0)], case_id=4)]
        with pytest.raises(DataFormatError, match="duplicate case id 4"):
            HashIndex.build(cases, LshPlanes.sample(8, 10, seed=3))
        with pytest.raises(DataFormatError, match="duplicate case id 3"):
            HashIndex.build(cases + cases[1:2], LshPlanes.sample(8, 10, seed=3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("kind", ["lsh", "learned"])
    def test_non_finite_value_rejected(self, kind, bad):
        """build and insert refuse what load would refuse, with load's text
        and before any coding, so an index always saves a loadable file."""
        coder = (LshPlanes.sample(8, 10, seed=3) if kind == "lsh" else
                 init_params(Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=5), d=10, seed=3))
        cases = [make_case(10, [(k, 1.0 + k)], label=k % 2, case_id=k) for k in range(6)]
        poisoned = make_case(10, [(1, 2.0), (4, bad)], label=1, case_id=3)
        text = f"case 3: value {bad} is not finite"
        with pytest.raises(DataFormatError, match=text):
            HashIndex.build(cases[:3] + [poisoned] + cases[4:], coder)
        idx = HashIndex.build([c for c in cases if c.id != 3], coder)
        with pytest.raises(DataFormatError, match=text):
            idx.insert(poisoned, idx.code(0))
        assert 3 not in idx and len(idx) == 5
        assert idx.retrieve(cases[0], idx.code(0), top_n=5, max_radius=8).ids == [0, 1, 2, 4, 5]

    @pytest.mark.parametrize("r", [7, 9, 70])
    def test_read_code_width_rejected(self, rng, r):
        idx, cases, _ = small_index(rng)
        code = LshPlanes.sample(r, 10, seed=3).code(cases[0])
        with pytest.raises(ValueError, match=f"code width {r} does not match index width 8"):
            idx.retrieve(cases[0], code, top_n=3)
        with pytest.raises(ValueError, match=f"code width {r} does not match index width 8"):
            idx.candidates_within(code, 1)

    def test_negative_radius_rejected(self, rng):
        idx, cases, planes = small_index(rng)
        code = planes.code(cases[0])
        with pytest.raises(ValueError, match="max_radius must be >= 0"):
            idx.retrieve(cases[0], code, top_n=3, max_radius=-1)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            idx.candidates_within(code, -1)

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
        assert idx.linear_scan(cases[0], top_n=3).ids == []

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
            tuple(row) for row in coder.code_rows(cases_to_csr(cases, 10)).tolist()]

        calls = []
        real = index_module.cases_to_csr
        monkeypatch.setattr(index_module, "cases_to_csr",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        got = idx.retrieve(cases[0], idx.code(cases[0].id), top_n=3)
        assert got.ids and calls == []  # the recode's snapshot serves it

    def test_build_converts_once(self, rng, monkeypatch, tmp_path):
        cases = random_cases(rng, 30, dim=10, nnz=4)
        planes, other = LshPlanes.sample(8, 10, seed=3), LshPlanes.sample(8, 10, seed=99)
        calls = []
        real = index_module.cases_to_csr
        monkeypatch.setattr(index_module, "cases_to_csr",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        idx = HashIndex.build(cases, planes)
        assert len(calls) == 1
        idx.save(tmp_path / "built.idx")
        assert idx.retrieve(cases[0], planes.code(cases[0]), top_n=3).ids
        assert idx.linear_scan(cases[0], top_n=3).ids
        idx.replace_codes(other)
        assert len(calls) == 1  # save, the queries and the recode kept the build's matrix

        extra = make_case(10, [(2, 0.5)], case_id=30)
        idx.insert(extra, other.code(extra))
        idx.save(tmp_path / "written.idx")
        HashIndex.build(cases + [extra], other).save(tmp_path / "fresh.idx")
        assert (tmp_path / "written.idx").read_bytes() == (tmp_path / "fresh.idx").read_bytes()

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
        far = flip(idx.code(0), *range(16))
        q = make_case(4, [(1, 1.0)], case_id=5)
        res = idx.retrieve(q, far, top_n=1, max_radius=2)
        assert res.ids == []
        assert res.n_candidates == 0
        assert res.distances.dtype == np.float64 and len(res.distances) == 0
        assert res.labels.dtype == np.int64 and len(res.labels) == 0

    def test_deep_radius_matches_bruteforce(self, rng):
        # top_n at or past the case count makes the gather run out to the
        # farthest code, or to max_radius
        idx, cases, planes = small_index(rng, n=20, r=24)
        for q in cases[:4]:
            code = planes.code(q)
            for c in (code, flip(code, *range(24)), flip(code, *range(0, 24, 2))):
                for top_n in (1, 5, 20, 21):
                    check_retrieval(idx, q, c, top_n, max_radius=24)
                assert idx.candidates_within(c, 24) == set(idx.ids())
        far = idx.retrieve(cases[0], planes.code(cases[0]), top_n=21, max_radius=100)
        assert (far.n_candidates, far.radius_used) == (20, 100)

    def test_codes_with_bit_63_set(self, rng):
        # at r=64 every code fills its one word; half the stored codes set
        # the top bit, which a signed comparison would order first
        idx, cases, planes = small_index(rng, n=30, r=64)
        extra = random_cases(rng, 30, dim=10, nnz=4, id_start=100)
        for k, case in enumerate(extra):
            code = idx.code(cases[k % 5].id)
            if k % 2:
                code = flip(code, 63, k)
            if bit(code, 63) == 0:
                code = flip(code, 63)
            idx.insert(case, code)
        codes = [idx.code(cid) for cid in idx.ids()]
        assert 0 < sum(bit(code, 63) for code in codes) < len(codes)
        assert idx.n_buckets == len(set(codes))
        for q in cases[:5] + extra[:10]:
            code = idx.code(q.id)
            for radius in (0, 1, 2):
                assert idx.candidates_within(code, radius) == {
                    cid for cid, other in zip(idx.ids(), codes)
                    if hamming_distance(code, other) <= radius}
            for top_n in (1, 3, 8):
                check_retrieval(idx, q, code, top_n, max_radius=2)
                check_retrieval(idx, q, flip(code, 63), top_n, max_radius=3)

    def test_query_dim_checked(self, rng):
        idx, _, planes = small_index(rng)
        q = make_case(3, [(0, 1.0)], case_id=50)
        with pytest.raises(DataFormatError):
            idx.retrieve(q, HashCode.from_signs(np.ones(8)), top_n=1)

    def test_rerank_distance_is_euclidean(self, rng):
        idx, cases, planes = small_index(rng)
        q = cases[0]
        res = idx.linear_scan(q, top_n=len(cases))
        qd = to_dense(q.features)
        for cid, dist in zip(res.ids, res.distances):
            want = float(np.linalg.norm(to_dense(idx.case(cid).features) - qd))
            assert dist == pytest.approx(want, abs=1e-9)


def reference_save(idx, path):
    """The index file written case by case, as the layout documents it: the
    rows in code order, ids ascending within a code; the counts and the
    feature indices at the narrowest unsigned width that holds dim and
    dim - 1."""
    ids = sorted(idx.ids(), key=lambda i: (idx.code(i).words, i))
    with open(path, "wb") as fh:
        fh.write(b"CHIX")
        np.array([3, idx.r, idx.dim, len(ids)], dtype="<i8").tofile(fh)
        np.array(ids, dtype="<i8").tofile(fh)
        for i in ids:
            np.array(idx.code(i).words, dtype="<u8").tofile(fh)
        np.array([idx.case(i).label for i in ids], dtype="<i8").tofile(fh)
        np.array([idx.case(i).features.nnz for i in ids], dtype=narrowest(idx.dim)).tofile(fh)
        for i in ids:
            np.array(idx.case(i).features.indices, dtype=narrowest(idx.dim - 1)).tofile(fh)
        for i in ids:
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

    def test_load_builds_no_per_case_objects(self, rng, tmp_path):
        cases = random_cases(rng, 5000, dim=40, nnz=5, n_labels=7)
        HashIndex.build(cases, LshPlanes.sample(16, 40, seed=3)).save(tmp_path / "5k.idx")
        gc.collect()
        before = len(gc.get_objects())
        back = HashIndex.load(tmp_path / "5k.idx")
        assert len(gc.get_objects()) - before < 100
        for case in cases:
            assert back.case(case.id) == case
            assert back.labels([case.id])[0] == case.label

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.idx"
        p.write_bytes(b"JUNKJUNKJUNK")
        with pytest.raises(DataFormatError):
            HashIndex.load(p)

    def test_version_1_file_refused(self, rng, tmp_path):
        idx, _, _ = small_index(rng)
        p = tmp_path / "cases.idx"
        idx.save(p)
        patch(p, 4, 1)  # the version word
        with pytest.raises(DataFormatError, match="version 1.*rebuild it with `casehash index`"):
            HashIndex.load(p)

    def test_version_2_file_refused(self, rng, tmp_path):
        idx, _, _ = small_index(rng)
        p = tmp_path / "cases.idx"
        idx.save(p)
        patch(p, 4, 2)  # the version word
        with pytest.raises(DataFormatError, match="version 2.*rebuild it with `casehash index`"):
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
    # magic, 4 header words, then 2 ids, 2 code words and 2 labels of 8 bytes
    # each, 2 one-byte counts, the 3 one-byte feature indices and the 3 values
    head = 4 + 8 * 4
    offsets = {"id1": (head + 8, "<i8"), "word0": (head + 16, "<u8"),
               "nnz0": (head + 48, "<u1"), "idx0": (head + 50, "<u1"),
               "idx1": (head + 51, "<u1"), "val0": (head + 53, "<f8")}
    return path, offsets


def patch(path, offset, value, dtype="<i8", width=None):
    """Overwrite the field at offset with value, given as dtype and stored
    at the field's own width (dtype's unless given): -1 stored one byte wide
    reads back as 255."""
    data = bytearray(path.read_bytes())
    item = np.array([value], dtype=dtype).astype(width or dtype).tobytes()
    data[offset:offset + len(item)] = item
    path.write_bytes(bytes(data))


def rows_file(tmp_path, rows):
    """An r=8, dim=4 index file of one case per feature row, case k with id
    10 + k, label k % 2 and code k, so the file keeps the rows' order, plus
    the byte offsets of each row's (index, value) entries: the counts and
    the indices are one byte each."""
    dim = 4
    idx = HashIndex(r=8, dim=dim)
    for k, pairs in enumerate(rows):
        idx.insert(make_case(dim, pairs, label=k % 2, case_id=10 + k), HashCode(r=8, words=(k,)))
    path = tmp_path / "rows.idx"
    idx.save(path)
    indices = 4 + 8 * 4 + (8 * 3 + 1) * len(rows)  # magic, header, ids, codes, labels, counts
    values = indices + sum(map(len, rows))  # the values block follows the indices block
    entries, k = [], 0
    for pairs in rows:
        entries.append([(indices + k + j, values + 8 * (k + j)) for j in range(len(pairs))])
        k += len(pairs)
    return path, entries


class TestLoadChecks:
    @pytest.mark.parametrize("field, value, dtype, match", [
        ("idx1", 4, "<i8", "out of range"),
        ("idx0", -1, "<i8", "ascending|out of range"),
        ("idx1", 0, "<i8", "ascending"),
        ("val0", 0.0, "<f8", "nonzero"),
        ("val0", np.nan, "<f8", "case 0: value nan is not finite"),
        ("val0", -np.inf, "<f8", "case 0: value -inf is not finite"),
        ("id1", 0, "<i8", "duplicate"),
        ("word0", 1 << 9, "<u8", "high bits"),
        ("nnz0", 5, "<i8", "case 0: count 5 exceeds dim"),
        ("nnz0", 4, "<i8", "truncated"),  # a count of dim reads past the end
    ])
    def test_corrupt_file_rejected(self, tmp_path, field, value, dtype, match):
        path, offsets = two_case_file(tmp_path)
        HashIndex.load(path)  # intact file loads
        offset, width = offsets[field]
        patch(path, offset, value, dtype, width)
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

    def test_row_boundaries_and_empty_rows_load(self, tmp_path):
        # a row ending at index 3 is followed by one starting at 0; empty rows
        # sit at the start, in the middle and at the end
        rows = [[], [(1, 1.0), (3, 2.0)], [(0, 3.0), (2, 4.0)], [], [(3, 5.0)],
                [(0, 6.0)], []]
        path, _ = rows_file(tmp_path, rows)
        back = HashIndex.load(path)
        for k, pairs in enumerate(rows):
            assert back.case(10 + k) == make_case(4, pairs, label=k % 2, case_id=10 + k)
            assert back.labels([10 + k])[0] == k % 2
        back.save(tmp_path / "again.idx")
        assert (tmp_path / "again.idx").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("entry, value, dtype, match", [
        (1, 0.0, "<f8", "nonzero"),  # the last value of the file
        (1, np.nan, "<f8", "case 13: value nan is not finite"),
        (0, 4, "<i8", "out of range"),  # the last index of the file
        (0, 1, "<i8", "ascending"),  # equals the index before it in its row
    ])
    def test_bad_entry_in_last_row_rejected(self, tmp_path, entry, value, dtype, match):
        path, entries = rows_file(tmp_path, [[], [(0, 1.0), (3, 2.0)], [],
                                             [(1, 3.0), (2, 4.0)]])
        HashIndex.load(path)
        patch(path, entries[-1][-1][entry], value, dtype, "<u1" if entry == 0 else "<f8")
        with pytest.raises(DataFormatError, match=match):
            HashIndex.load(path)

    def test_every_prefix_rejected(self, tmp_path):
        path, _ = rows_file(tmp_path, [[(0, 1.0), (3, 2.0)], [], [(1, 3.0)]])
        data = path.read_bytes()
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(DataFormatError):
                HashIndex.load(path)


class TestContains:
    @pytest.mark.parametrize("stored", [[], [5], [-3, 5, 9, 40, 41, 1000]])
    def test_present_and_absent_ids(self, monkeypatch, stored):
        idx = HashIndex(r=8, dim=4)
        for k, cid in enumerate(stored):
            idx.insert(make_case(4, [(k % 4, 1.0)], case_id=cid), HashCode(r=8, words=(k,)))
        # a membership test searches once and raises nothing: it never goes
        # through the KeyError of the id accessors
        monkeypatch.setattr(HashIndex, "_rows", lambda self, ids: pytest.fail("_rows called"))
        for cid in stored:
            assert cid in idx
        below, above = min(stored, default=0) - 1, max(stored, default=0) + 1
        between = [cid + 1 for cid in stored if cid + 1 not in stored]
        for cid in [below, above, *between]:
            assert cid not in idx
        idx.insert(make_case(4, [], case_id=above), HashCode(r=8, words=(0,)))
        assert above in idx


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
        signs = np.array([to_signs(code) for code in codes])
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

    def test_slice_equals_gather_bit_for_bit(self, rng):
        cases = random_cases(rng, 40, dim=12, nnz=5) + [make_case(12, [], case_id=40)]
        x = cases_to_csr(cases, 12)
        q = rng.normal(size=12)
        for a, b in ((0, 41), (3, 17), (40, 41), (39, 41), (5, 5)):
            in_place = index_module._row_dots(x, slice(a, b), q)
            assert in_place.tobytes() == index_module._row_dots(x, np.arange(a, b), q).tobytes()
            assert in_place.tobytes() == (x[a:b] @ q).tobytes()

    def test_row_norms_equal_scipy_bit_for_bit(self, rng):
        # empty rows first, between and last, values over 300 decades, and a
        # row whose every square underflows to zero
        rows = [[]] + [[(int(c), float(v * 10.0 ** e)) for c, v, e in
                        zip(rng.choice(30, size=6, replace=False), rng.normal(size=6),
                            rng.integers(-170, 150, size=6))] for _ in range(20)]
        rows += [[], [(0, 1e-200), (7, -3e-190)], [(1, 1e-170), (2, 2.5)], []]
        x = cases_to_csr([make_case(30, sorted(r), case_id=k) for k, r in enumerate(rows)], 30)
        assert (x.data * x.data == 0).any()
        want = np.asarray(x.multiply(x).sum(axis=1)).ravel()
        assert index_module._row_norms(x).tobytes() == want.tobytes()
        assert index_module._row_norms(x[:0]).shape == (0,)


class TestCodeOrder:
    def test_rows_follow_the_bucket_table(self, rng):
        cases = random_cases(rng, 60, dim=10, nnz=4)
        idx = HashIndex.build(cases[::-1], LshPlanes.sample(4, 10, seed=3))
        assert [row for bucket in idx._buckets for row in bucket.tolist()] == list(range(60))
        assert idx._ids.tolist() != sorted(idx._ids.tolist())
        x, row_sq = idx._matrix()
        want = cases_to_csr([idx.case(cid) for cid in idx._ids.tolist()], 10)
        assert (x != want).nnz == 0
        assert row_sq.tobytes() == np.asarray(want.multiply(want).sum(axis=1)).ravel().tobytes()

    def test_one_bucket_reranks_in_place(self, rng, monkeypatch):
        idx, cases, planes = small_index(rng, n=60, r=4)
        gathered = []
        real = index_module._gather_rows
        monkeypatch.setattr(index_module, "_gather_rows",
                            lambda x, rows: gathered.append(len(rows)) or real(x, rows))
        # a case of the first bucket: inserting beside it breaks its range
        first = idx._buckets[0]
        q = idx.case(int(idx._ids[first[0]]))
        code = planes.code(q)
        before = idx.retrieve(q, code, top_n=1, max_radius=0)
        assert before.n_candidates == len(first) and gathered == []
        ids, dists = idx._ids[first], idx._distances_to(q, first)
        assert idx._distances_to(q, slice(first[0], first[-1] + 1)).tobytes() == dists.tobytes()

        extra = make_case(10, [(9, 40.0)], case_id=1000)
        idx.insert(extra, code)
        idx._matrix()  # the rebuild gathers the converted rows into row order
        gathered.clear()
        after = idx.retrieve(q, code, top_n=len(first) + 1, max_radius=0)
        assert gathered == [len(first) + 1]
        order = np.lexsort((ids, dists))
        assert after.ids == ids[order].tolist() + [1000]
        assert after.distances[:-1].tobytes() == dists[order].tobytes()

    def test_rebuild_converts_in_arrival_order(self, rng, monkeypatch, tmp_path):
        cases = random_cases(rng, 30, dim=10, nnz=4)
        cases = [cases[k] for k in rng.permutation(30)]
        planes = LshPlanes.sample(8, 10, seed=3)
        idx = HashIndex.build(cases, planes)
        idx.save(tmp_path / "built.idx")
        converted = []
        real = index_module.cases_to_csr
        monkeypatch.setattr(index_module, "cases_to_csr",
                            lambda cases, dim: converted.append([c.id for c in cases])
                            or real(cases, dim))
        extra = [make_case(10, [(2, 0.5)], case_id=100), make_case(10, [(3, 0.5)], case_id=50)]
        for case in extra:
            idx.insert(case, planes.code(case))
        idx.retrieve(cases[0], planes.code(cases[0]), top_n=3)
        assert converted == [[c.id for c in cases + extra]]
        idx.remove(cases[4].id)
        idx.retrieve(cases[0], planes.code(cases[0]), top_n=3)
        assert converted[-1] == [c.id for c in cases + extra if c.id != cases[4].id]

        # a loaded index lists its cases in its row order, then the inserts
        back = HashIndex.load(tmp_path / "built.idx")
        rows = back._ids.tolist()
        back.insert(extra[0], planes.code(extra[0]))
        back.linear_scan(cases[0], top_n=3)
        assert converted[-1] == rows + [100]
