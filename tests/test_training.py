import numpy as np
import pytest

from casehash import (
    DivergenceError,
    Gradients,
    Hyperparams,
    OptimizerState,
    PairBatch,
    batch_objective,
    grad,
    init_params,
    sample_pairs,
    train,
)
from casehash import forward_batch
from casehash.training import adaptive_objective_and_grad

from conftest import (
    adaptive_loss,
    finite_diff_grad,
    make_case,
    pair_loss,
    random_cases,
    relaxed_similarity,
    zero_gradients,
)


def rel_err(g: Gradients, fd: Gradients) -> float:
    worst = 0.0
    for (_, a), (_, b) in zip(g.arrays(), fd.arrays()):
        scale = max(float(np.abs(b).max(initial=0.0)), 1e-12)
        worst = max(worst, float(np.abs(a - b).max(initial=0.0)) / scale)
    return worst


class TestPairLoss:
    def test_frozen_value_positive_pair(self):
        # alpha=0.6, s=1, s_hat=10: log(1+e^6) - 6
        assert pair_loss(1, 10.0, 0.6) == pytest.approx(
            0.0024756851377301103, abs=1e-15)

    def test_frozen_value_negative_pair(self):
        # alpha=0.6, s=0, s_hat=-3: log(1+e^{-1.8})
        assert pair_loss(0, -3.0, 0.6) == pytest.approx(
            0.15297761052607411, abs=1e-15)

    def test_overflow_safe(self):
        assert np.isfinite(pair_loss(1, 5000.0, 1.0))
        assert np.isfinite(pair_loss(0, 5000.0, 1.0))
        assert pair_loss(1, 5000.0, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_pushes_in_the_right_direction(self):
        # similar pairs prefer large s_hat, dissimilar small
        assert pair_loss(1, 5.0, 0.6) < pair_loss(1, -5.0, 0.6)
        assert pair_loss(0, -5.0, 0.6) < pair_loss(0, 5.0, 0.6)


class TestAdaptiveLoss:
    def test_frozen_value_at_zero(self):
        # r=36, beta=0.5 -> margin 18; s=1, s_hat=0: 18*log 2
        assert adaptive_loss(1, 0.0, 0.6, 0.5, 36) == pytest.approx(
            12.476649250079015, abs=1e-12)

    def test_frozen_value_negative_pair(self):
        # r=16, beta=0.5 -> margin 8; s=0, s_hat=2: 10*log(1+e^{1.2})
        assert adaptive_loss(0, 2.0, 0.6, 0.5, 16) == pytest.approx(
            14.632824673380311, abs=1e-12)

    def test_zero_beyond_margin(self):
        assert adaptive_loss(1, 18.0, 0.6, 0.5, 36) == 0.0
        assert adaptive_loss(1, 30.0, 0.6, 0.5, 36) == 0.0
        assert adaptive_loss(0, -8.0, 0.6, 0.5, 16) == 0.0
        assert adaptive_loss(0, -16.0, 0.6, 0.5, 16) == 0.0

    def test_positive_inside_margin(self):
        assert adaptive_loss(1, 17.9, 0.6, 0.5, 36) > 0.0
        assert adaptive_loss(0, -7.9, 0.6, 0.5, 16) > 0.0


class TestPairBatch:
    def _cases(self, rng, n=8):
        return random_cases(rng, n, dim=12, nnz=4)

    def test_rejects_self_pairs(self, rng):
        cases = self._cases(rng)
        with pytest.raises(ValueError):
            PairBatch(cases=cases, i=[0], j=[0], s=[1])

    def test_rejects_duplicate_unordered(self, rng):
        cases = self._cases(rng)
        with pytest.raises(ValueError):
            PairBatch(cases=cases, i=[0, 1], j=[1, 0], s=[1, 1])

    def test_counts(self, rng):
        cases = self._cases(rng)
        b = PairBatch(cases=cases, i=[0, 0, 1], j=[1, 2, 2], s=[1, 0, 0])
        assert len(b) == 3
        assert b.n_positive == 1 and b.n_negative == 2
        assert b.distinct_positions().tolist() == [0, 1, 2]


class TestObjective:
    def test_matches_manual_sum(self, small_params, rng):
        cases = random_cases(rng, 4, dim=12, nnz=5)
        b = PairBatch(cases=cases, i=[0, 1], j=[2, 3], s=[1, 0])
        hyper = small_params.hyper
        outputs = [forward_batch([c], small_params)[0] for c in cases]
        manual = 0.0
        for (i, j, s) in [(0, 2, 1), (1, 3, 0)]:
            s_hat = relaxed_similarity(outputs[i], outputs[j])
            manual += pair_loss(s, s_hat, hyper.alpha)
        manual -= hyper.lambda_ * sum(float(o @ o) for o in outputs)
        assert batch_objective(b, small_params) == pytest.approx(manual, rel=1e-12)

    def test_empty_batch_zero_gradients(self, small_params, rng):
        cases = random_cases(rng, 3, dim=12, nnz=4)
        b = PairBatch(cases=cases, i=[], j=[], s=[])
        assert batch_objective(b, small_params) == 0.0
        g = grad(b, small_params)
        assert all(np.all(a == 0) for _, a in g.arrays())


class TestGradient:
    def test_small_config_close_to_finite_difference(self, rng):
        hyper = Hyperparams(k_w=4, k_v=3, r=5, l=2, hidden=4, lambda_=0.3)
        params = init_params(hyper, d=8, seed=3)
        cases = random_cases(rng, 5, dim=8, nnz=3)
        b = PairBatch(cases=cases, i=[0, 0, 1, 2], j=[1, 2, 3, 4], s=[1, 0, 1, 0])
        assert rel_err(grad(b, params), finite_diff_grad(b, params, 1e-5)) < 1e-6

    def test_first_order_config(self, rng):
        hyper = Hyperparams(k_w=3, k_v=3, r=4, l=2, hidden=3, first_order=True)
        params = init_params(hyper, d=6, seed=9)
        cases = random_cases(rng, 4, dim=6, nnz=2)
        b = PairBatch(cases=cases, i=[0, 1], j=[2, 3], s=[1, 0])
        # gradients here are ~1e-6 in magnitude, so fd rounding noise caps
        # the achievable relative agreement; 1e-4 is the contract tolerance
        assert rel_err(grad(b, params), finite_diff_grad(b, params, 1e-5)) < 1e-4

    def test_regularizer_only(self, rng):
        # lone pair with lambda>0 exercises the -2*lambda*z path
        hyper = Hyperparams(k_w=3, k_v=2, r=3, l=2, hidden=3, lambda_=0.4)
        params = init_params(hyper, d=5, seed=11)
        cases = random_cases(rng, 2, dim=5, nnz=2)
        b = PairBatch(cases=cases, i=[0], j=[1], s=[1])
        assert rel_err(grad(b, params), finite_diff_grad(b, params, 1e-5)) < 1e-6

    def test_adaptive_gradient_matches_fd(self, rng):
        hyper = Hyperparams(k_w=3, k_v=3, r=4, l=2, hidden=3, beta=0.1)
        params = init_params(hyper, d=6, seed=4)
        cases = random_cases(rng, 4, dim=6, nnz=3)
        b = PairBatch(cases=cases, i=[0, 0, 1], j=[1, 2, 3], s=[1, 0, 1])

        def objective(p):
            from casehash.training import _forward_distinct, _adaptive_loss_and_dshat
            _, _, z, local = _forward_distinct(b, p)
            li = [local[x] for x in b.i.tolist()]
            lj = [local[x] for x in b.j.tolist()]
            s_hat = (z[li] * z[lj]).sum(axis=1)
            losses, _ = _adaptive_loss_and_dshat(b.s, s_hat, hyper.alpha,
                                                 hyper.beta, hyper.r)
            return float(losses.sum())

        _, g = adaptive_objective_and_grad(b, params)
        fd = zero_gradients(params)
        eps = 1e-6
        for (_, arr), (_, garr) in zip(params.arrays(), fd.arrays()):
            flat, gflat = arr.ravel(), garr.ravel()
            for t in range(flat.size):
                orig = flat[t]
                flat[t] = orig + eps
                fp = objective(params)
                flat[t] = orig - eps
                fm = objective(params)
                flat[t] = orig
                gflat[t] = (fp - fm) / (2 * eps)
        assert rel_err(g, fd) < 1e-5


class TestSamplePairs:
    def test_deterministic(self, rng):
        cases = random_cases(rng, 30, dim=10, nnz=3)
        a = sample_pairs(cases, 12, seed=5)
        b = sample_pairs(cases, 12, seed=5)
        assert a.i.tolist() == b.i.tolist()
        assert a.j.tolist() == b.j.tolist()
        assert a.s.tolist() == b.s.tolist()

    def test_balanced_about_one_to_one(self, rng):
        cases = random_cases(rng, 40, dim=10, nnz=3)
        b = sample_pairs(cases, 20, seed=7)
        assert not b.unbalanced
        assert b.n_negative <= max(b.n_positive, 1)

    def test_supervision_matches_labels(self, rng):
        cases = random_cases(rng, 20, dim=10, nnz=3)
        b = sample_pairs(cases, 10, seed=2)
        for i, j, s in zip(b.i, b.j, b.s):
            assert s == (1.0 if cases[i].label == cases[j].label else 0.0)

    def test_single_label_warns_unbalanced(self, rng):
        cases = random_cases(rng, 10, dim=10, nnz=3, n_labels=1)
        with pytest.warns(UserWarning):
            b = sample_pairs(cases, 6, seed=0)
        assert b.unbalanced
        assert b.n_negative == 0

    def test_worked_example_four_cases(self):
        # labels (a,a,b,b): 2 positive pairs, up to 4 negatives, balanced 2:2
        cases = [make_case(4, [(i, 1.0)], label=i // 2, case_id=i) for i in range(4)]
        b = sample_pairs(cases, 4, seed=1)
        assert b.n_positive == 2
        assert b.n_negative == 2


class TestOptimizer:
    def test_sgd_step(self):
        hyper = Hyperparams(k_w=2, k_v=2, r=2, l=2, hidden=2)
        params = init_params(hyper, d=3, seed=0)
        before = {n: a.copy() for n, a in params.arrays()}
        g = zero_gradients(params)
        g.v[:] = 2.0
        opt = OptimizerState(kind="sgd", lr=0.1)
        opt.apply(params, g)
        assert np.allclose(params.v, before["v"] - 0.2)
        assert np.array_equal(params.w_p, before["w_p"])

    def test_adam_first_step_is_signed_lr(self):
        # bias correction makes the first update lr * g/|g| (eps aside)
        hyper = Hyperparams(k_w=2, k_v=2, r=2, l=2, hidden=2)
        params = init_params(hyper, d=3, seed=0)
        before = params.v.copy()
        g = zero_gradients(params)
        g.v[:] = [[3.0, -0.5], [0.25, -8.0]]
        opt = OptimizerState(kind="adam", lr=1e-3)
        opt.apply(params, g)
        step = before - params.v
        assert np.allclose(step, 1e-3 * np.sign(g.v), rtol=1e-6)

    def test_zero_gradient_is_noop_from_fresh_state(self):
        hyper = Hyperparams(k_w=2, k_v=2, r=2, l=2, hidden=2)
        params = init_params(hyper, d=3, seed=0)
        before = {n: a.copy() for n, a in params.arrays()}
        opt = OptimizerState(kind="adam")
        opt.apply(params, zero_gradients(params))
        for n, a in params.arrays():
            assert np.array_equal(a, before[n])


class TestTrain:
    def _data(self, rng, n=40):
        return random_cases(rng, n, dim=10, nnz=4)

    def test_deterministic(self, rng):
        cases = self._data(rng)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=6)
        a = train(cases, hyper, epochs=3, seed=5, batch_size=16)
        b = train(cases, hyper, epochs=3, seed=5, batch_size=16)
        for (_, x), (_, y) in zip(a.params.arrays(), b.params.arrays()):
            assert np.array_equal(x, y)
        assert [r.objective for r in a.history] == [r.objective for r in b.history]

    def test_zero_epochs_returns_init(self, rng):
        cases = self._data(rng)
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=6)
        res = train(cases, hyper, epochs=0, seed=5)
        assert res.history == []
        assert not res.stopped_early and not res.diverged

    def test_objective_decreases(self, rng):
        cases = self._data(rng, n=60)
        hyper = Hyperparams(k_w=8, k_v=8, r=8, l=2, hidden=8)
        res = train(cases, hyper, epochs=10, seed=1, batch_size=30)
        assert res.history[-1].objective < res.history[0].objective

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            train([], Hyperparams(), epochs=1, seed=0)

    def test_single_label_warns(self, rng):
        cases = random_cases(rng, 10, dim=6, nnz=2, n_labels=1)
        hyper = Hyperparams(k_w=3, k_v=3, r=4, l=2, hidden=3)
        with pytest.warns(UserWarning):
            train(cases, hyper, epochs=1, seed=0, batch_size=6)

    def test_early_stopping(self, rng):
        cases = self._data(rng)
        hyper = Hyperparams(k_w=4, k_v=4, r=6, l=2, hidden=4)
        res = train(cases, hyper, epochs=50, seed=2, batch_size=20,
                    lr=0.0, patience=3)  # lr 0: no progress, stops at patience
        assert res.stopped_early
        # epoch 1 improves on the infinite initial best, then 3 stale epochs
        assert len(res.history) == 4

    def test_divergence_reverts_to_last_finite(self, rng):
        cases = self._data(rng)
        hyper = Hyperparams(k_w=4, k_v=4, r=6, l=2, hidden=4)
        # lr large enough to overflow the squared interaction sums
        with np.errstate(over="ignore", invalid="ignore"):
            res = train(cases, hyper, epochs=8, seed=2, batch_size=20, lr=1e200)
        assert res.diverged
        assert all(np.all(np.isfinite(a)) for _, a in res.params.arrays())
