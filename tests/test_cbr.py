import numpy as np
import pytest

from casehash import (CbrEngine, DivergenceError, HashCode, HashIndex, Hyperparams, LshPlanes,
                      clustered_fixture, init_params)
import casehash.cbr as cbr_module
import casehash.index as index_module
import casehash.sparse as sparse_module
from casehash.cbr import Suggestion
from casehash.network import pack_rows
from casehash.sparse import cases_to_csr

from conftest import flip, make_case, random_cases, same_csr, to_dense


class CountingCoder:
    """Wraps a coder and counts its single-case code() calls; code_rows
    passes through."""

    def __init__(self, inner):
        self.inner = inner
        self.r = inner.r
        self.calls = 0

    def code(self, case):
        self.calls += 1
        return self.inner.code(case)

    def code_rows(self, x):
        return self.inner.code_rows(x)


class MinimalCoder:
    """A coder with only r, code(case) and code_rows(x): bit m says whether
    feature m is positive, or, inverted, whether it is not."""

    __slots__ = ("r", "sign")

    def __init__(self, r, invert=False):
        self.r = r
        self.sign = -1.0 if invert else 1.0

    def code(self, case) -> HashCode:
        return HashCode.from_signs(self.sign * np.where(to_dense(case.features)[:self.r] > 0,
                                                        1.0, -1.0))

    def code_rows(self, x) -> np.ndarray:
        return pack_rows(self.sign * np.where(x[:, :self.r].toarray() > 0, 1.0, -1.0))


def record_batches(monkeypatch) -> list:
    """Patch the engine's objective so each PairBatch it is given lands in
    the returned list."""
    seen = []
    real = cbr_module.adaptive_objective_and_grad

    def spy(batch, coder):
        seen.append(batch)
        return real(batch, coder)

    monkeypatch.setattr(cbr_module, "adaptive_objective_and_grad", spy)
    return seen


def one_bucket_index(cases):
    """Index where every case lands in the same bucket (constant features)."""
    planes = LshPlanes.sample(4, cases[0].features.dim, seed=0)
    return HashIndex.build(cases, planes), planes


class TestSuggest:
    def test_majority_vote(self):
        # 2 cases labeled 1 at distance ~0, 1 case labeled 0 further away
        cases = [make_case(3, [(0, 1.0)], label=1, case_id=0),
                 make_case(3, [(0, 1.0)], label=1, case_id=1),
                 make_case(3, [(0, 1.0), (1, 2.0)], label=0, case_id=2)]
        idx, planes = one_bucket_index(cases)
        eng = CbrEngine(idx, planes, top_n=3)
        sug = eng.suggest(make_case(3, [(0, 1.0)], case_id=9))
        assert sug.label == 1
        assert sug.votes == {1: 2, 0: 1}
        assert sug.scores[1] > sug.scores[0]

    def test_vote_tie_broken_by_distance(self):
        # one vote each; label 7's case is nearer
        cases = [make_case(3, [(0, 1.0)], label=7, case_id=0),
                 make_case(3, [(0, 1.0), (1, 3.0)], label=4, case_id=1)]
        idx, planes = one_bucket_index(cases)
        eng = CbrEngine(idx, planes, top_n=2)
        sug = eng.suggest(make_case(3, [(0, 1.0)], case_id=9))
        assert sug.votes == {7: 1, 4: 1}
        assert sug.label == 7
        assert sug.scores[7] > sug.scores[4]

    def test_full_tie_broken_by_label_id(self):
        cases = [make_case(3, [(0, 1.0)], label=5, case_id=0),
                 make_case(3, [(0, 1.0)], label=2, case_id=1)]
        idx, planes = one_bucket_index(cases)
        eng = CbrEngine(idx, planes, top_n=2)
        sug = eng.suggest(make_case(3, [(0, 1.0)], case_id=9))
        assert sug.label == 2

    def test_votes_from_the_answer_labels(self, monkeypatch):
        # the answer carries its neighbours' labels: no second id lookup
        cases = [make_case(3, [(0, 1.0)], label=1, case_id=0),
                 make_case(3, [(0, 1.0)], label=1, case_id=1),
                 make_case(3, [(0, 1.0), (1, 2.0)], label=0, case_id=2)]
        idx, planes = one_bucket_index(cases)

        def no_lookup(self, ids):
            raise AssertionError("suggest looked the neighbours' labels up again")

        monkeypatch.setattr(HashIndex, "labels", no_lookup)
        sug = CbrEngine(idx, planes, top_n=3).suggest(make_case(3, [(0, 1.0)], case_id=9))
        assert sug.retrieval.ids == [0, 1, 2]
        assert sug.retrieval.labels.tolist() == [1, 1, 0]
        assert (sug.label, sug.votes) == (1, {1: 2, 0: 1})

    def test_empty_retrieval_gives_none(self, rng):
        cases = [make_case(3, [(0, 1.0)], label=1, case_id=0)]
        planes = LshPlanes.sample(16, 3, seed=1)
        idx = HashIndex.build(cases, planes)
        eng = CbrEngine(idx, planes, top_n=1, max_radius=0)

        class FarCoder:
            r = 16

            def code(self, case):
                return flip(idx.code(0), *range(16))

        eng.coder = FarCoder()
        sug = eng.suggest(make_case(3, [(1, 1.0)], case_id=9))
        assert sug.label is None
        assert sug.scores == {}

    def test_revise(self):
        sug = Suggestion(query_id=0, label=3)
        assert CbrEngine.revise(sug, 3) is True
        assert CbrEngine.revise(sug, 4) is False


class TestRetain:
    def test_insert_and_buffer(self, rng):
        cases = random_cases(rng, 10, dim=6, nnz=3)
        idx, planes = one_bucket_index(cases)
        eng = CbrEngine(idx, planes, top_n=3, update_interval=100)
        new = make_case(6, [(0, 1.0)], label=0, case_id=50)
        retained, updated = eng.retain(new)
        assert retained and not updated
        assert 50 in idx
        assert eng.buffer == [50]

    def test_no_update_engine_is_frozen(self, rng):
        cases = random_cases(rng, 10, dim=6, nnz=3)
        idx, planes = one_bucket_index(cases)
        eng = CbrEngine(idx, planes, top_n=3, no_update=True)
        new = make_case(6, [(0, 1.0)], label=0, case_id=50)
        retained, updated = eng.retain(new)
        assert not retained and not updated
        assert 50 not in idx
        assert eng.buffer == []

    def test_lsh_engine_drops_buffer_without_update(self, rng):
        cases = random_cases(rng, 10, dim=6, nnz=3)
        idx, planes = one_bucket_index(cases)
        eng = CbrEngine(idx, planes, top_n=3, update_interval=2)
        eng.retain(make_case(6, [(0, 1.0)], label=0, case_id=50))
        retained, updated = eng.retain(make_case(6, [(1, 1.0)], label=1, case_id=51))
        assert retained and not updated  # planes are not trainable
        assert eng.buffer == []
        assert 50 in idx and 51 in idx

    def test_update_triggered_at_interval(self, rng):
        cases = random_cases(rng, 30, dim=8, nnz=3)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=5)
        params = init_params(hyper, d=8, seed=1)
        idx = HashIndex.build(cases, params)
        eng = CbrEngine(idx, params, top_n=3, seed=2)
        assert eng.update_interval == 5
        extra = random_cases(rng, 5, dim=8, nnz=3, id_start=100)
        updates = [eng.retain(c)[1] for c in extra]
        assert updates == [False, False, False, False, True]
        assert eng.n_updates == 1
        assert eng.buffer == []

    def test_update_changes_codes_when_loss_positive(self, rng):
        cases = random_cases(rng, 40, dim=8, nnz=3)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=10)
        params = init_params(hyper, d=8, seed=1)
        idx = HashIndex.build(cases, params)
        before = {n: a.copy() for n, a in params.arrays()}
        eng = CbrEngine(idx, params, top_n=3, seed=2, update_lr=0.05)
        for c in random_cases(rng, 10, dim=8, nnz=3, id_start=100):
            eng.retain(c)
        assert eng.n_updates == 1
        changed = any(not np.array_equal(a, before[n]) for n, a in params.arrays())
        assert changed

    def test_update_pairs_buffer_against_all(self, rng, monkeypatch):
        # every buffer case pairs with each later case of buffer + reservoir
        cases = random_cases(rng, 30, dim=8, nnz=3, n_labels=3)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=4)
        params = init_params(hyper, d=8, seed=1)
        idx = HashIndex.build(cases, params)
        eng = CbrEngine(idx, params, top_n=3, seed=2)
        seen, asked, real_rows = record_batches(monkeypatch), [], idx.rows

        def spy_rows(ids):
            asked.append(list(ids))
            return real_rows(ids)

        monkeypatch.setattr(idx, "rows", spy_rows)
        buffered = random_cases(rng, 4, dim=8, nnz=3, n_labels=3, id_start=100)
        for c in buffered:
            eng.retain(c)
        # one read from the index: the buffered ids, then the reservoir,
        # sampled from the other stored ids by the engine's generator
        picks = np.random.default_rng(2).choice(30, size=4, replace=False)
        assert asked == [[100, 101, 102, 103] + sorted(picks.tolist())]
        stored = {c.id: c for c in cases + buffered}
        batch, rows = seen[0], [stored[cid] for cid in asked[0]]
        assert same_csr(batch.x, cases_to_csr(rows, 8))
        want = [(a, b) for a in range(4) for b in range(a + 1, len(rows))]
        assert list(zip(batch.i.tolist(), batch.j.tolist())) == want
        assert batch.s.tolist() == [float(rows[a].label == rows[b].label) for a, b in want]
        # every step of the round reuses that one matrix
        assert len(seen) > 1 and all(b.x is batch.x for b in seen)

    def test_update_converts_no_case_list(self, rng, monkeypatch):
        # the round reads its rows from the index's snapshot; the only
        # conversion is the snapshot rebuild after the round's inserts
        calls = {"sparse": [], "index": []}

        def counted(where):
            def convert(cases, dim):
                calls[where].append(len(cases))
                return cases_to_csr(cases, dim)
            return convert

        monkeypatch.setattr(sparse_module, "cases_to_csr", counted("sparse"))
        monkeypatch.setattr(index_module, "cases_to_csr", counted("index"))
        cases = random_cases(rng, 30, dim=8, nnz=3)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=4)
        params = init_params(hyper, d=8, seed=1)
        eng = CbrEngine(HashIndex.build(cases, params), params, top_n=3, seed=2,
                        update_epochs=5, update_lr=0.05)
        calls["index"].clear()  # build's own conversion
        for c in random_cases(rng, 8, dim=8, nnz=3, id_start=100):
            eng.retain(c)
        assert eng.n_updates == 2
        assert calls == {"sparse": [], "index": [34, 38]}

    def test_removed_buffered_id_leaves_the_round(self, rng, monkeypatch):
        cases = random_cases(rng, 30, dim=8, nnz=3, n_labels=3)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=3)
        params = init_params(hyper, d=8, seed=1)
        idx = HashIndex.build(cases, params)
        eng = CbrEngine(idx, params, top_n=3, seed=2)
        seen = record_batches(monkeypatch)
        new = random_cases(rng, 3, dim=8, nnz=3, n_labels=3, id_start=100)
        eng.retain(new[0])
        eng.retain(new[1])
        idx.remove(100)
        assert eng.buffer == [100, 101]
        eng.retain(new[2])
        # 101 and 102 pair with each other and with 3 reservoir cases
        assert eng.n_updates == 1 and eng.last_update.pairs == 1 + 2 * 3
        picks = sorted(np.random.default_rng(2).choice(30, size=3, replace=False).tolist())
        assert same_csr(seen[0].x, cases_to_csr(new[1:] + [cases[k] for k in picks], 8))

    def test_id_buffered_twice_trains_once(self, rng, monkeypatch):
        # 100 is retained, removed and retained again: the buffer holds it
        # twice, and the round pairs it once with the reservoir and never
        # with itself, as a round of one copy does
        cases = random_cases(rng, 30, dim=8, nnz=3, n_labels=3)
        new = random_cases(rng, 1, dim=8, nnz=3, n_labels=3, id_start=100)[0]
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=3)
        seen, pairs = record_batches(monkeypatch), []
        for copies in (2, 1):
            params = init_params(hyper, d=8, seed=1)
            idx = HashIndex.build(cases, params)
            eng = CbrEngine(idx, params, top_n=3, seed=2, update_epochs=1)
            eng.retain(new)
            if copies == 2:
                idx.remove(100)
                eng.retain(new)
            assert eng.buffer == [100] * copies
            eng.update_model()
            pairs.append(eng.last_update.pairs)
        batch, one_batch = seen
        assert pairs == [3, 3]
        differing = np.asarray((batch.x[batch.i] != batch.x[batch.j]).sum(axis=1)).ravel()
        assert (differing > 0).all()
        assert same_csr(batch.x, one_batch.x)
        assert (batch.i.tolist(), batch.j.tolist()) == (one_batch.i.tolist(), one_batch.j.tolist())

    def test_round_without_pairs_is_counted(self, rng):
        # the only stored case is removed, so the round's one buffered case
        # has no partner: it forms no pair, takes no step, and still counts
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=1)
        params = init_params(hyper, d=8, seed=1)
        idx = HashIndex.build(random_cases(rng, 1, dim=8, nnz=3), params)
        idx.remove(0)
        eng = CbrEngine(idx, params, top_n=3, seed=2)
        case = random_cases(rng, 1, dim=8, nnz=3, id_start=100)[0]
        rec = eng.solve(case, true_label=case.label)
        assert rec.updated and rec.update.pairs == 0 and rec.update.steps == 0
        assert eng.n_updates == 1

    def test_zero_loss_update_is_bitwise_noop(self, rng):
        # saturate the last layer so every output is exactly +-1; a
        # single-label buffer then has s_hat = r >= margin for every pair,
        # the adaptive loss is exactly 0.0, and no step may be applied
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=4, beta=0.5)
        params = init_params(hyper, d=6, seed=3)
        params.layers[-1].b[:] = 60.0  # squash(+-60) == -1.0 exactly in floats
        params.layers[-1].w[:] = 0.0
        cases = random_cases(rng, 12, dim=6, nnz=3, n_labels=1)
        idx = HashIndex.build(cases, params)
        before = {n: a.copy() for n, a in params.arrays()}
        codes_before = {cid: idx.code(cid) for cid in idx.ids()}

        eng = CbrEngine(idx, params, top_n=2, seed=4)
        for c in random_cases(rng, 4, dim=6, nnz=3, n_labels=1, id_start=100):
            eng.retain(c)
        assert eng.n_updates == 1
        for n, a in params.arrays():
            assert np.array_equal(a, before[n]), f"{n} changed on zero loss"
        for cid, code in codes_before.items():
            assert idx.code(cid) == code

    def test_failed_update_restores_the_parameters(self, rng):
        # a step of lr 1e300 sends the network's outputs past float range:
        # the round raises, and the engine keeps the parameters and codes it
        # had before the round
        cases = random_cases(rng, 60, dim=8, nnz=3)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=5)
        params = init_params(hyper, d=8, seed=1)
        idx = HashIndex.build(cases, params)
        eng = CbrEngine(idx, params, top_n=3, seed=2, update_lr=1e300)
        new = random_cases(rng, 6, dim=8, nnz=3, id_start=100)
        with np.errstate(over="ignore", invalid="ignore"):
            for c in new[:4]:
                eng.solve(c, true_label=c.label)
            before = params.copy()
            codes = {cid: idx.code(cid) for cid in idx.ids()}
            with pytest.raises(DivergenceError):
                eng.solve(new[4], true_label=new[4].label)
        assert eng.n_updates == 1 and eng.buffer == []
        # the round is marked undone: it keeps its loss and pairs, and
        # reports no step, recode or churn, since none of them was kept
        stats = eng.last_update
        assert stats.diverged and stats.pairs > 0 and stats.loss > 0
        assert (stats.steps, stats.recode_us, stats.churn) == (0, 0.0, 0.0)
        for (name, a), (_, b) in zip(params.arrays(), before.arrays()):
            assert np.array_equal(a, b), f"{name} changed by the failed round"
        codes[104] = idx.code(104)
        assert {cid: idx.code(cid) for cid in idx.ids()} == codes
        assert all(idx.code(cid) == params.code(idx.case(cid)) for cid in idx.ids())
        assert eng.suggest(new[5]).label is not None


class TestUpdateTelemetry:
    def test_solve_records_update_stats(self, rng):
        cases = random_cases(rng, 40, dim=8, nnz=3)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=5)
        params = init_params(hyper, d=8, seed=1)
        idx = HashIndex.build(cases, params)
        eng = CbrEngine(idx, params, top_n=3, seed=2, update_epochs=3, update_lr=0.05)
        records = []
        for c in random_cases(rng, 5, dim=8, nnz=3, id_start=100):
            before = {cid: idx.code(cid) for cid in idx.ids()}
            before[c.id] = params.code(c)  # the code it is retained under
            records.append(eng.solve(c, true_label=c.label))
        assert [r.update is None for r in records] == [True] * 4 + [False]
        stats = records[-1].update
        assert stats is eng.last_update
        # every unordered buffer pair plus each buffer case against 5 others
        assert stats.pairs == 10 + 5 * 5
        assert stats.loss > 0 and 1 <= stats.steps <= 3 and stats.recode_us > 0
        changed = sum(idx.code(cid) != code for cid, code in before.items())
        assert stats.churn == changed / len(idx)

    def test_update_model_returns_the_recorded_loss(self, rng):
        cases = random_cases(rng, 30, dim=8, nnz=3)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=50)
        params = init_params(hyper, d=8, seed=1)
        eng = CbrEngine(HashIndex.build(cases, params), params, top_n=3, seed=2)
        for c in random_cases(rng, 4, dim=8, nnz=3, id_start=100):
            eng.retain(c)
        assert eng.update_model() == eng.last_update.loss

    def test_zero_loss_update_takes_no_step(self, rng):
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=4, beta=0.5)
        params = init_params(hyper, d=6, seed=3)
        params.layers[-1].b[:] = 60.0  # every output exactly +1: zero loss
        params.layers[-1].w[:] = 0.0
        idx = HashIndex.build(random_cases(rng, 12, dim=6, nnz=3, n_labels=1), params)
        eng = CbrEngine(idx, params, top_n=2, seed=4)
        for c in random_cases(rng, 4, dim=6, nnz=3, n_labels=1, id_start=100):
            rec = eng.solve(c, true_label=0)
        assert rec.updated
        assert (rec.update.loss, rec.update.steps, rec.update.recode_us,
                rec.update.churn) == (0.0, 0, 0.0, 0.0)
        assert rec.update.pairs > 0


class TestSolve:
    def test_full_cycle(self, rng):
        cases = random_cases(rng, 20, dim=6, nnz=3)
        idx, planes = one_bucket_index(cases)
        eng = CbrEngine(idx, planes, top_n=5, update_interval=100)
        q = make_case(6, [(0, 0.4)], label=cases[0].label, case_id=77)
        rec = eng.solve(q, true_label=q.label)
        assert rec.correct in (True, False)
        assert rec.retained
        assert 77 in idx
        assert rec.total_us > 0.0

    def test_solve_without_truth_only_suggests(self, rng):
        cases = random_cases(rng, 10, dim=6, nnz=3)
        idx, planes = one_bucket_index(cases)
        eng = CbrEngine(idx, planes, top_n=3)
        rec = eng.solve(make_case(6, [(1, 1.0)], case_id=88))
        assert rec.correct is None
        assert not rec.retained
        assert 88 not in idx

    def test_query_hashed_once(self, rng):
        cases = random_cases(rng, 20, dim=6, nnz=3)
        idx, planes = one_bucket_index(cases)
        coder = CountingCoder(planes)
        eng = CbrEngine(idx, coder, top_n=5, update_interval=100)
        q = make_case(6, [(0, 0.4)], label=1, case_id=77)
        rec = eng.solve(q, true_label=1)
        assert rec.retained
        assert coder.calls == 1
        assert idx.code(77) == planes.code(q) == rec.suggestion.code

    def test_stored_id_is_not_retained(self):
        # solving a case that is already stored must not raise mid-stream
        base = clustered_fixture(n=250, seed=8)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=5)
        params = init_params(hyper, d=base[0].features.dim, seed=1)
        idx = HashIndex.build(base, params)
        codes = {cid: idx.code(cid) for cid in idx.ids()}
        eng = CbrEngine(idx, params, top_n=3, seed=2)
        rec = eng.solve(base[0], true_label=base[0].label)
        assert not rec.retained and not rec.updated
        assert rec.correct in (True, False)
        assert 0 in rec.suggestion.retrieval.ids  # it finds itself
        assert eng.buffer == []
        assert len(idx) == 250
        assert idx.case(0) == base[0]
        assert {cid: idx.code(cid) for cid in idx.ids()} == codes

    def test_revealed_label_overrides_placeholder(self, rng):
        cases = random_cases(rng, 10, dim=6, nnz=3)
        idx, planes = one_bucket_index(cases)
        eng = CbrEngine(idx, planes, top_n=3, update_interval=100)
        q = make_case(6, [(1, 1.0)], label=0, case_id=88)
        eng.solve(q, true_label=1)
        assert idx.case(88).label == 1


class TestConstruction:
    def test_bad_args(self, rng):
        cases = random_cases(rng, 5, dim=6, nnz=2)
        idx, planes = one_bucket_index(cases)
        with pytest.raises(ValueError):
            CbrEngine(idx, planes, top_n=0)
        with pytest.raises(ValueError):
            CbrEngine(idx, planes, update_interval=0)
        with pytest.raises(ValueError, match="max_radius must be >= 0"):
            CbrEngine(idx, planes, max_radius=-3)

    def test_update_interval_defaults_to_hyper(self, rng):
        cases = random_cases(rng, 5, dim=6, nnz=2)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=37)
        params = init_params(hyper, d=6, seed=0)
        idx = HashIndex.build(cases, params)
        eng = CbrEngine(idx, params)
        assert eng.update_interval == 37

    def test_update_model_requires_trainable(self, rng):
        cases = random_cases(rng, 5, dim=6, nnz=2)
        idx, planes = one_bucket_index(cases)
        eng = CbrEngine(idx, planes)
        with pytest.raises(RuntimeError):
            eng.update_model()


class TestMinimalCoder:
    def test_index_and_engine(self, rng, tmp_path):
        cases = random_cases(rng, 50, dim=8, nnz=4, n_labels=3)
        coder = MinimalCoder(6)
        idx = HashIndex.build(cases[:30], coder)
        assert all(idx.code(c.id) == coder.code(c) for c in cases[:30])
        # at radius r every stored case is a candidate, so no solve comes up empty
        eng = CbrEngine(idx, coder, top_n=3, max_radius=6, update_interval=5)
        for case in cases[30:40]:
            rec = eng.solve(case, true_label=case.label)
            assert rec.retained and rec.suggestion.label is not None
            assert idx.code(case.id) == coder.code(case)

        inverted = MinimalCoder(6, invert=True)
        assert idx.replace_codes(inverted) == len(idx) == 40
        assert all(idx.code(c.id) == inverted.code(c) for c in cases[:40])
        idx.save(tmp_path / "cases.idx")
        loaded = HashIndex.load(tmp_path / "cases.idx")
        for q in cases[40:]:
            want = idx.retrieve(q, inverted.code(q), top_n=3, max_radius=6)
            got = loaded.retrieve(q, inverted.code(q), top_n=3, max_radius=6)
            assert (got.ids, got.distances.tolist()) == (want.ids, want.distances.tolist())

        eng = CbrEngine(loaded, inverted, top_n=3, max_radius=6)
        for case in cases[40:]:
            assert eng.solve(case, true_label=case.label).retained
        loaded.save(tmp_path / "written.idx")
        HashIndex.build(cases, inverted).save(tmp_path / "built.idx")
        assert (tmp_path / "written.idx").read_bytes() == (tmp_path / "built.idx").read_bytes()
