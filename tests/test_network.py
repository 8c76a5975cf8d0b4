import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import casehash
from casehash import network

from casehash import (
    DataFormatError,
    DivergenceError,
    HashCode,
    HashIndex,
    Hyperparams,
    LshPlanes,
    hash_case,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from casehash.network import (
    CODE_BLOCK_ROWS,
    FcLayer,
    NetworkParams,
    case_sums,
    fc_stack,
    inner_product,
    pack_rows,
    squash,
    squash_grad_from_output,
)

from casehash.sparse import cases_to_csr

from conftest import (bit, case_output, flip, forward_batch, interact, interact_bruteforce,
                      make_case, random_cases, to_signs)


class TestSquash:
    def test_known_value(self):
        # 2/(1+e^2) - 1, worked by hand
        assert squash(2.0) == pytest.approx(-0.7615941559557649, abs=1e-15)

    def test_decreasing_odd_bounded(self):
        x = np.linspace(-30, 30, 301)
        y = squash(x)
        assert np.all(np.diff(y) <= 0)
        assert np.allclose(y + squash(-x), 0.0, atol=1e-15)
        assert np.all(np.abs(y) <= 1.0)
        assert squash(0.0) == 0.0

    def test_grad_matches_finite_difference(self):
        x = np.array([-2.0, -0.3, 0.0, 0.7, 3.1])
        eps = 1e-6
        fd = (squash(x + eps) - squash(x - eps)) / (2 * eps)
        assert np.allclose(squash_grad_from_output(squash(x)), fd, atol=1e-9)


class TestInteraction:
    def test_hand_worked_example(self):
        # two active features x=(1,2), k_w=2: e_1=[1,0], e_2=[2,4]
        # single view v=[1,0.5]: z = <e_1, e_2*v> = 1*2*1 + 0*4*0.5 = 2
        emb = np.array([[1.0, 2.0], [0.0, 4.0]])
        v = np.array([[1.0], [0.5]])
        assert interact(emb, v) == pytest.approx([2.0])
        assert interact_bruteforce(emb, v) == pytest.approx([2.0])

    def test_identity_on_random_embeddings(self, rng):
        for _ in range(20):
            nnz = int(rng.integers(0, 7))
            emb = rng.normal(size=(5, nnz))
            v = rng.normal(size=(5, 3))
            fast = interact(emb, v)
            slow = interact_bruteforce(emb, v)
            assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)

    def test_single_feature_is_zero(self, rng):
        emb = rng.normal(size=(4, 1))
        v = rng.normal(size=(4, 2))
        assert np.allclose(interact(emb, v), 0.0, atol=1e-12)

    def test_zero_features_contribute_nothing(self, small_params):
        # an explicit zero is dropped at construction, so the embedding of
        # a case with and without that entry is identical
        a = make_case(12, [(2, 0.5), (7, 0.0)], case_id=0)
        b = make_case(12, [(2, 0.5)], case_id=1)
        for sa, sb in zip(case_sums(a, small_params), case_sums(b, small_params)):
            assert np.array_equal(sa, sb)


class TestForward:
    def test_output_in_open_interval(self, small_params, rng):
        for case in random_cases(rng, 10, dim=12, nnz=5):
            out = forward_batch([case], small_params)[0]
            assert out.shape == (8,)
            assert np.all(np.abs(out) < 1.0)

    def test_empty_case_valid(self, small_params):
        out = forward_batch([make_case(12, [])], small_params)[0]
        assert np.all(np.isfinite(out))
        assert np.all(np.isfinite(case_output(make_case(12, []), small_params)))

    def test_dim_mismatch(self, small_params):
        with pytest.raises(ValueError):
            hash_case(make_case(9, [(0, 1.0)]), small_params)
        with pytest.raises(DataFormatError):
            hash_case(make_case(9, [(0, 1.0)]), small_params)

    def test_batch_matches_single(self, small_params, rng):
        cases = random_cases(rng, 17, dim=12, nnz=4)
        batch = forward_batch(cases, small_params)
        single = np.stack([case_output(c, small_params) for c in cases])
        assert np.allclose(batch, single, rtol=1e-12, atol=1e-12)
        assert small_params.code_batch(cases).tolist() == [
            list(hash_case(c, small_params).words) for c in cases]

    def test_first_order_slot_changes_output(self, rng):
        hyper = Hyperparams(k_w=6, k_v=5, r=8, l=2, hidden=7, first_order=True)
        params = init_params(hyper, d=12, seed=42)
        assert params.w_p.shape == (6, 13)
        case = make_case(12, [(3, 1.0)])
        out = case_output(case, params)
        batch = forward_batch([case], params)
        assert np.allclose(batch[0], out, rtol=1e-12, atol=1e-12)

    def test_divergence_detected(self, small_params):
        small_params.layers[0].w[:] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            hash_case(make_case(12, [(0, 1.0)]), small_params)
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            forward_batch([make_case(12, [(0, 1.0)])], small_params)

    def test_case_sums_are_running_sums(self):
        case = make_case(12, [(1, 0.5), (8, -2.0)])
        for first_order, idx, val in ((False, [1, 8], [0.5, -2.0]),
                                      (True, [1, 8, 12], [0.5, -2.0, 1.0])):
            hyper = Hyperparams(k_w=6, k_v=5, r=8, l=2, hidden=7, first_order=first_order)
            params = init_params(hyper, d=12, seed=42)
            emb = params.w_p[:, idx] * np.array(val)
            s1, s2 = case_sums(case, params)
            assert np.allclose(s1, emb.sum(axis=1))
            assert np.allclose(s2, np.square(emb).sum(axis=1))


class TestCodeBatch:
    @pytest.mark.parametrize("r", [6, 64, 65, 70])
    @pytest.mark.parametrize("kind", ["network", "lsh"])
    def test_rows_equal_single_codes(self, rng, kind, r):
        if kind == "network":
            coder = init_params(Hyperparams(k_w=6, k_v=5, r=r, l=2, hidden=7), d=12, seed=r)
        else:
            coder = LshPlanes.sample(r, 12, seed=r)
        cases = random_cases(rng, 23, dim=12, nnz=4) + [make_case(12, [], case_id=23)]
        words = coder.code_rows(cases_to_csr(cases, 12))
        assert words.dtype == np.uint64 and words.shape == (24, (r + 63) // 64)
        assert [tuple(row) for row in words.tolist()] == [coder.code(c).words for c in cases]
        empty = coder.code_rows(cases_to_csr([], 12))
        assert empty.dtype == np.uint64 and empty.shape == (0, (r + 63) // 64)


B = CODE_BLOCK_ROWS


@pytest.fixture(scope="module")
def block_cases():
    """2B+3 random cases: enough rows for two whole blocks and a partial one."""
    return random_cases(np.random.default_rng(77), 2 * B + 3, dim=12, nnz=4)


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "first_order"])
def block_reference(request, block_cases):
    """Parameters and, per case, the one-row path's output and code."""
    hyper = Hyperparams(k_w=6, k_v=5, r=10, l=2, hidden=7, first_order=request.param)
    params = init_params(hyper, d=12, seed=9)
    outputs = np.stack([case_output(c, params) for c in block_cases])
    codes = [hash_case(c, params).words for c in block_cases]
    return params, outputs, codes


def force_workers(monkeypatch, count):
    """Run forward_rows serially (1) or on a pool of count workers."""
    monkeypatch.setattr(network, "code_workers", lambda: count)


class TestBlockedForward:
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
    def test_rows_match_single_path(self, block_cases, block_reference, monkeypatch, n):
        params, outputs, codes = block_reference
        got = []
        for count in (1, 2):
            force_workers(monkeypatch, count)
            out = forward_batch(block_cases[:n], params)
            assert out.shape == (n, 10)
            assert np.allclose(out, outputs[:n], rtol=1e-12, atol=1e-12)
            words = params.code_batch(block_cases[:n])
            assert [tuple(row) for row in words.tolist()] == codes[:n]
            got.append(out)
        assert np.array_equal(got[0], got[1])  # the pool is bit-identical

    def test_code_rows_equals_code_batch(self, block_cases, block_reference):
        params, _, _ = block_reference
        x = cases_to_csr(block_cases, 12)
        assert np.array_equal(params.code_rows(x), params.code_batch(block_cases))
        with pytest.raises(DataFormatError):
            params.code_rows(cases_to_csr([make_case(13, [(0, 1.0), (12, 1.0)])], 13))

    def test_non_finite_output_in_later_block(self, block_cases, small_params, monkeypatch):
        # one case in the second block overflows: inf - inf in the interaction
        cases = list(block_cases[:B + 2])
        cases[B + 1] = make_case(12, [(0, 1e200), (3, 1e200)], case_id=cases[B + 1].id)
        for count in (1, 2):
            force_workers(monkeypatch, count)
            forward_batch(cases[:B + 1], small_params)  # the rows before it are fine
            # the caller's errstate holds in the pool's threads: no warning escapes
            with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(DivergenceError):
                    forward_batch(cases, small_params)
                with pytest.raises(DivergenceError):
                    small_params.code_batch(cases)
                with pytest.raises(DivergenceError):
                    HashIndex.build(cases, small_params)

    def test_memory_is_bounded_by_the_block(self):
        # default widths, so a block's (rows, 128) intermediates dominate
        params = init_params(Hyperparams(), d=40, seed=1)
        one = random_cases(np.random.default_rng(5), B, dim=40, nnz=5)
        eight = one * 8

        def traced_peak(cases):
            params.code_batch(cases[:8])  # warm up outside the trace
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                params.code_batch(cases)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert traced_peak(eight) < 2.5 * traced_peak(one)


class TestCodePool:
    @pytest.mark.parametrize("env, pinned", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
        ({"OMP_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1"}, False),
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, False),
        ({"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}, False),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}, False),
    ])
    def test_workers_follow_the_blas_variables(self, monkeypatch, env, pinned):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        cores = len(os.sched_getaffinity(0))
        assert network.code_workers() == (cores if pinned else 1)

    def test_concurrent_callers_get_identical_codes(self, block_cases, block_reference,
                                                    monkeypatch):
        force_workers(monkeypatch, 2)
        params, _, codes = block_reference
        want = np.array(codes, dtype=np.uint64)
        results = [None] * 4

        def code(k):
            results[k] = params.code_batch(block_cases)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=code, args=(k,)) for k in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(np.array_equal(got, want) for got in results)

    @pytest.mark.parametrize("bad_row", [None, B // 2 + 1, B + 1],
                             ids=["returns", "pool-block-diverges", "caller-block-diverges"])
    def test_no_thread_outlives_the_call(self, block_cases, small_params, monkeypatch,
                                         bad_row):
        # with two workers, blocks of B // 2 rows alternate caller, pool, caller
        force_workers(monkeypatch, 2)
        cases = list(block_cases)
        if bad_row is None:
            forward_batch(cases, small_params)
        else:
            cases[bad_row] = make_case(12, [(0, 1e200), (3, 1e200)], case_id=bad_row)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(DivergenceError):
                forward_batch(cases, small_params)
        assert [t.name for t in threading.enumerate()
                if t.name.startswith("casehash-code")] == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_codes_identically(self, block_cases, block_reference,
                                            monkeypatch):
        force_workers(monkeypatch, 2)
        params, _, codes = block_reference
        want = np.array(codes, dtype=np.uint64)
        params.code_batch(block_cases)  # the parent codes on a pool before it forks
        pid = os.fork()
        if pid == 0:  # the child: report through the exit status only
            status = 1
            try:
                status = 0 if np.array_equal(params.code_batch(block_cases), want) else 1
            finally:
                os._exit(status)
        deadline = time.monotonic() + 120
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        if not done:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done and os.waitstatus_to_exitcode(status) == 0


# the child records the thread that ran each block's FC stack, which shows
# whether the pool's threads coded any block
CHILD_CODES = """
import json, threading
import numpy as np
from casehash import Hyperparams, init_params, network
from conftest import random_cases
coders, relaxed_output = set(), network.relaxed_output
def traced(z, params):
    coders.add(threading.current_thread().name)
    return relaxed_output(z, params)
network.relaxed_output = traced
cases = random_cases(np.random.default_rng(3), 3 * network.CODE_BLOCK_ROWS + 5,
                     dim=30, nnz=5)
words = init_params(Hyperparams(r=24), d=30, seed=2).code_batch(cases)
print(json.dumps({"workers": network.code_workers(),
                  "pooled": any(name.startswith("casehash-code") for name in coders),
                  "codes": words.tobytes().hex()}))
"""


def test_pinned_blas_codes_on_the_pool(monkeypatch):
    """With the BLAS variables at 1, code_batch runs its blocks on the pool
    and gives the serial path's codes byte for byte."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the pool engages only with two or more cores")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([str(Path(casehash.__file__).parents[1]),
                                         str(Path(__file__).parent)])
    proc = subprocess.run([sys.executable, "-c", CHILD_CODES], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child["workers"] >= 2 and child["pooled"]

    force_workers(monkeypatch, 1)
    cases = random_cases(np.random.default_rng(3), 3 * B + 5, dim=30, nnz=5)
    serial = init_params(Hyperparams(r=24), d=30, seed=2).code_batch(cases)
    assert child["codes"] == serial.tobytes().hex()


class TestHashCode:
    def test_sign_zero_is_positive(self):
        code = HashCode.from_signs(np.array([0.0, -0.1, 0.2, -0.0]))
        # -0.0 >= 0 is True, so bit 3 is also +1
        assert [bit(code, m) for m in range(4)] == [1, 0, 1, 1]

    def test_round_trip_signs(self, rng):
        vals = rng.normal(size=70)  # crosses a word boundary
        code = HashCode.from_signs(vals)
        signs = to_signs(code)
        assert np.array_equal(signs, np.where(vals >= 0, 1, -1))

    def test_pack_rows_matches_from_signs(self, rng):
        block = rng.normal(size=(9, 130))
        block[0, :3] = [0.0, -0.0, np.nan]
        packed = pack_rows(block)
        assert packed.shape == (9, 3) and packed.dtype == np.uint64
        assert [tuple(row) for row in packed.tolist()] == [
            HashCode.from_signs(row).words for row in block]
        # per bit: word m // 64 holds bit m % 64, set iff the value is >= 0
        for got, row in zip(packed.tolist(), block):
            words = [0, 0, 0]
            for m, value in enumerate(row):
                if value >= 0:
                    words[m // 64] |= 1 << (m % 64)
            assert got == words

    def test_flip(self):
        code = HashCode.from_signs(np.ones(10))
        flipped = flip(code, 0, 9)
        assert bit(flipped, 0) == 0 and bit(flipped, 9) == 0
        assert flip(flipped, 0, 9) == code

    def test_word_count_validation(self):
        with pytest.raises(ValueError):
            HashCode(r=65, words=(0,))
        with pytest.raises(ValueError):
            HashCode(r=4, words=(1 << 5,))  # high bits must be clear

    def test_inner_product_identity(self, rng):
        for r in (4, 16, 36, 70):
            a = HashCode.from_signs(rng.normal(size=r))
            b = HashCode.from_signs(rng.normal(size=r))
            ip = int(to_signs(a).astype(int) @ to_signs(b).astype(int))
            assert inner_product(a, b) == ip
            assert inner_product(a, a) == r

    def test_hash_case_binarizes_forward(self, small_params, rng):
        case = random_cases(rng, 1, dim=12, nnz=5)[0]
        out = case_output(case, small_params)
        code = hash_case(case, small_params)
        assert code == HashCode.from_signs(out)


class TestInit:
    def test_deterministic(self, small_hyper):
        a = init_params(small_hyper, d=12, seed=7)
        b = init_params(small_hyper, d=12, seed=7)
        for (_, x), (_, y) in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_seed_changes_weights(self, small_hyper):
        a = init_params(small_hyper, d=12, seed=7)
        b = init_params(small_hyper, d=12, seed=8)
        assert not np.array_equal(a.w_p, b.w_p)

    def test_shapes_and_bias_zero(self, small_hyper):
        p = init_params(small_hyper, d=12, seed=0)
        assert p.w_p.shape == (6, 12)
        assert p.v.shape == (6, 5)
        sizes = [(7, 5), (8, 7)]  # k_v -> hidden -> r
        assert [layer.w.shape for layer in p.layers] == sizes
        assert all(np.all(layer.b == 0) for layer in p.layers)

    def test_last_layer_squashes_and_the_others_rectify(self, rng):
        p = init_params(Hyperparams(k_w=6, k_v=5, r=8, l=3, hidden=7), d=12, seed=0)
        *hidden, (pre, out) = fc_stack(rng.normal(size=(4, 5)), p)
        assert len(hidden) == 2
        assert all(np.array_equal(h, np.maximum(z, 0.0)) for z, h in hidden)
        assert np.array_equal(out, -np.tanh(pre / 2.0))

    def test_embedding_scale(self, small_hyper):
        p = init_params(small_hyper, d=12, seed=0)
        assert np.abs(p.w_p).max() <= 1.0
        assert np.abs(p.v).max() <= 1.0 / np.sqrt(6)


class TestCheckpoint:
    def test_round_trip_exact(self, small_params, tmp_path):
        p = tmp_path / "m.chn"
        save_checkpoint(small_params, p)
        loaded = load_checkpoint(p)
        assert loaded.d == small_params.d
        for (n1, a), (n2, b) in zip(small_params.arrays(), loaded.arrays()):
            assert n1 == n2
            assert np.array_equal(a, b)
        case = make_case(12, [(0, 0.3), (5, 1.0)])
        assert hash_case(case, loaded) == hash_case(case, small_params)

    def test_hyper_mismatch_rejected(self, small_params, small_hyper, tmp_path):
        p = tmp_path / "m.chn"
        save_checkpoint(small_params, p)
        other = Hyperparams(k_w=6, k_v=5, r=16, l=2, hidden=7)
        with pytest.raises(ValueError):
            load_checkpoint(p, other)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "m.chn"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(Exception):
            load_checkpoint(p)

    def test_first_order_flag_round_trip(self, tmp_path):
        hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=5, first_order=True)
        params = init_params(hyper, d=6, seed=1)
        p = tmp_path / "m.chn"
        save_checkpoint(params, p)
        loaded = load_checkpoint(p)
        assert loaded.hyper.first_order is True
        assert loaded.w_p.shape == (4, 7)


class TestHyperparams:
    def test_defaults(self):
        h = Hyperparams()
        assert (h.k_w, h.k_v, h.r, h.l, h.hidden) == (64, 64, 36, 3, 128)
        assert (h.alpha, h.lambda_, h.beta) == (0.6, 0.2, 0.5)
        assert (h.n_u, h.top_n, h.first_order) == (100, 10, False)

    def test_layer_sizes(self):
        h = Hyperparams(k_v=32, l=3, hidden=64, r=16)
        assert h.layer_sizes() == [32, 64, 64, 16]

    @pytest.mark.parametrize("bad", [
        dict(r=0), dict(l=0), dict(alpha=0.0), dict(alpha=1.5),
        dict(lambda_=-0.1), dict(lambda_=1.0), dict(beta=1.5), dict(n_u=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            Hyperparams(**bad)
