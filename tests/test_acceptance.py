"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test emits one line ``ACCEPTANCE Cnn <name>: PASS|FAIL (<detail>)``
and asserts the same condition, so the gate holds with or without the
output. The lines stream with ``-s`` and are replayed in a terminal
summary section after any run, so plain ``pytest`` shows them too.
Expected values come from independent oracles computed inside each test:
explicit pairwise loops, central finite differences, brute-force Hamming
filters, and O(n^2) metric recounts.
"""

import os
import time
from math import comb

import numpy as np
import pytest

from casehash import (
    CbrEngine,
    HashCode,
    HashIndex,
    Hyperparams,
    LshPlanes,
    PairBatch,
    accuracy,
    ap_at_n,
    auc_binary,
    auc_multiclass,
    clustered_fixture,
    evaluate,
    grad,
    bench,
    hamming_distance,
    init_params,
    map_at_n,
    prec_at_n,
    split,
    train,
    two_class_fixture,
)
from casehash.network import inner_product
from casehash.sparse import (
    SparseCase,
    SparseVector,
    fit_ranges,
    load_csv,
    normalize,
)

import conftest
from conftest import (finite_diff_grad, hamming_ball, interact, interact_bruteforce,
                      make_case, random_cases)


def report(num, name, ok, detail):
    status = ok if isinstance(ok, str) else ("PASS" if ok else "FAIL")
    line = f"ACCEPTANCE C{num:02d} {name}: {status} ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print("\n" + line, flush=True)


def test_c01_interaction_identity():
    """Fast interaction equals the explicit pairwise loop on 1000 instances."""
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        nnz = int(rng.integers(0, 13))
        emb = rng.normal(size=(8, nnz))
        v = rng.normal(size=(8, 6))
        fast = interact(emb, v)
        slow = interact_bruteforce(emb, v)
        scale = max(float(np.abs(slow).max(initial=0.0)), 1e-12)
        worst = max(worst, float(np.abs(fast - slow).max(initial=0.0)) / scale)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    report(1, "interaction-identity", ok,
           f"max rel err {worst:.3g} (tol 1e-10), {elapsed:.2f}s (limit 5s)")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_c02_gradient_check():
    """Analytic gradients match central finite differences on >=5 configs."""
    rng = np.random.default_rng(202)
    configs = [
        dict(k_w=4, k_v=3, r=5, l=2, hidden=4, lambda_=0.0),
        dict(k_w=4, k_v=3, r=5, l=2, hidden=4, lambda_=0.4),
        dict(k_w=6, k_v=6, r=8, l=3, hidden=5, lambda_=0.4),
        dict(k_w=3, k_v=5, r=4, l=1, hidden=4, lambda_=0.0),
        dict(k_w=5, k_v=4, r=6, l=2, hidden=7, lambda_=0.4, first_order=True),
        dict(k_w=4, k_v=4, r=5, l=2, hidden=4, lambda_=0.0, alpha=1.0),
    ]
    worst = 0.0
    for ci, kwargs in enumerate(configs):
        hyper = Hyperparams(**kwargs)
        params = init_params(hyper, d=8, seed=300 + ci)
        cases = random_cases(rng, 6, dim=8, nnz=3)
        batch = PairBatch(cases=cases, i=[0, 0, 1, 2, 3], j=[1, 2, 3, 4, 5],
                          s=[1, 0, 1, 0, 1])
        g = grad(batch, params)
        fd = finite_diff_grad(batch, params, eps=1e-5)
        for (_, a), (_, b) in zip(g.arrays(), fd.arrays()):
            scale = max(float(np.abs(b).max(initial=0.0)), 1e-12)
            worst = max(worst, float(np.abs(a - b).max(initial=0.0)) / scale)
    ok = worst <= 1e-4
    report(2, "gradient-vs-finite-difference", ok,
           f"{len(configs)} configs incl lambda 0 and 0.4, "
           f"max rel err {worst:.3g} (tol 1e-4)")
    assert worst <= 1e-4


def test_c03_quantization_bound():
    """sum(1-|z|) <= n*r - tr(Z^T Z) for 1000 matrices with entries in [-1,1]."""
    rng = np.random.default_rng(303)
    min_slack = np.inf
    for k in range(1000):
        n = int(rng.integers(1, 21))
        r = int(rng.choice([4, 16, 36]))
        if k % 100 == 0:
            z = rng.choice([-1.0, 1.0], size=(n, r))  # bound is tight here
        elif k % 100 == 1:
            z = np.zeros((n, r))
        else:
            z = rng.uniform(-1.0, 1.0, size=(n, r))
        lhs = float(np.sum(1.0 - np.abs(z)))
        rhs = n * r - float(np.trace(z.T @ z))
        min_slack = min(min_slack, rhs - lhs)
    ok = min_slack >= -1e-12
    report(3, "quantization-bound", ok,
           f"min slack {min_slack:.3g} over 1000 matrices (floor -1e-12)")
    assert min_slack >= -1e-12


def test_c04_hamming_identities_and_ball_counts():
    """d_H = (r - <a,b>)/2 and exact ball sizes for r in 4, 16, 36."""
    rng = np.random.default_rng(404)
    checked = 0
    for r in (4, 16, 36):
        for _ in range(200):
            a = HashCode.from_signs(rng.normal(size=r))
            b = HashCode.from_signs(rng.normal(size=r))
            d = hamming_distance(a, b)
            assert d == (r - inner_product(a, b)) // 2
            assert d == int(np.sum(a.to_signs() != b.to_signs()))
            checked += 1
        center = HashCode.from_signs(rng.normal(size=r))
        ball1 = set(hamming_ball(center, 1))
        ball2 = set(hamming_ball(center, 2))
        assert len(ball1) == 1 + r
        assert len(ball2) == 1 + r + comb(r, 2)
        assert all(hamming_distance(center, c) <= 2 for c in ball2)
    report(4, "hamming-identities", True,
           f"{checked} code pairs, ball sizes 1+r and 1+r+C(r,2) at r=4,16,36")


def test_c05_index_matches_bruteforce_filter():
    """Bucket-probe candidates equal a brute-force Hamming filter, r=16."""
    rng = np.random.default_rng(505)
    n = 10_000
    words = rng.integers(0, 2 ** 16, size=n, dtype=np.uint64)
    idx = HashIndex(r=16, dim=4)
    for cid in range(n):
        case = SparseCase(id=cid, features=SparseVector(dim=4, indices=(0,),
                                                        values=(1.0,)), label=0)
        idx.insert(case, HashCode(r=16, words=(int(words[cid]),)))

    queries = rng.integers(0, 2 ** 16, size=100, dtype=np.uint64)
    for q in queries:
        dists = np.bitwise_count(words ^ q)  # oracle: vectorized popcount
        q_code = HashCode(r=16, words=(int(q),))
        for radius in (0, 1, 2):
            got = idx.candidates_within(q_code, radius)
            want = set(np.flatnonzero(dists <= radius).tolist())
            assert got == want, f"radius {radius} mismatch for query {int(q)}"
    report(5, "index-candidate-oracle", True,
           "10000 codes, 100 queries, radii 0/1/2 all equal the brute filter")


def test_c06_learning_fixture_quality():
    """Train on the mixed synthetic fixture: accuracy and MAP@10 floors."""
    started = time.perf_counter()
    cases = two_class_fixture(n=2000, seed=11)
    train_cases, test_cases = split(cases, 0.8, seed=1)
    res = train(train_cases, Hyperparams(r=16), epochs=50, seed=5)
    idx = HashIndex.build(train_cases, res.params)
    rep = evaluate(idx, res.params, test_cases, top_n=10)
    elapsed = time.perf_counter() - started
    ok = rep.accuracy >= 0.90 and rep.map_at_n >= 0.85 and elapsed <= 120.0
    report(6, "fixture-learning-quality", ok,
           f"accuracy {rep.accuracy:.3f} (floor 0.90), "
           f"MAP@10 {rep.map_at_n:.3f} (floor 0.85), {elapsed:.0f}s (limit 120s)")
    assert rep.accuracy >= 0.90
    assert rep.map_at_n >= 0.85
    assert elapsed <= 120.0


ADULT_COLUMNS = {
    "age": "numeric", "workclass": "categorical", "fnlwgt": "numeric",
    "education": "categorical", "education-num": "numeric",
    "marital-status": "categorical", "occupation": "categorical",
    "relationship": "categorical", "race": "categorical", "sex": "categorical",
    "capital-gain": "numeric", "capital-loss": "numeric",
    "hours-per-week": "numeric", "native-country": "categorical",
    "income": "label",
}


def _adult_path():
    env = os.environ.get("CASEHASH_ADULT")
    if env and os.path.exists(env):
        return env
    default = os.path.join(os.path.dirname(__file__), "..", "data", "adult.csv")
    return default if os.path.exists(default) else None


def _learned_vs_lsh(all_cases, schema, n_train, n_test, hyper, seeds, epochs):
    learned, lsh = [], []
    for seed in seeds:
        order = np.random.default_rng(seed).permutation(len(all_cases))
        picked = [all_cases[i] for i in order[:n_train + n_test]]
        train_cases, test_cases = picked[:n_train], picked[n_train:]
        if schema is not None:
            fit_ranges(schema, train_cases)
            train_cases = normalize(train_cases, schema)
            test_cases = normalize(test_cases, schema)
        res = train(train_cases, hyper, epochs=epochs, seed=seed)
        idx = HashIndex.build(train_cases, res.params)
        learned.append(evaluate(idx, res.params, test_cases,
                                top_n=hyper.top_n).accuracy)
        planes = LshPlanes.sample(hyper.r, train_cases[0].features.dim, seed=seed)
        idx2 = HashIndex.build(train_cases, planes)
        lsh.append(evaluate(idx2, planes, test_cases, top_n=hyper.top_n).accuracy)
    return float(np.mean(learned)), float(np.mean(lsh))


def test_c07_adult_learned_beats_lsh():
    """Census income data, 10k/2k, r=36, N=10: learned >= LSH + 0.03 (3 seeds)."""
    path = _adult_path()
    if path is None:
        report(7, "adult-learned-vs-lsh", "SKIP",
               "dataset not present; set CASEHASH_ADULT or add "
               "data/adult.csv (demos/prepare_adult.py downloads it)")
        pytest.skip("adult dataset not available in this environment "
                    "(no network access; see demos/prepare_adult.py)")
    cases, schema = load_csv(path, ADULT_COLUMNS)
    mean_learned, mean_lsh = _learned_vs_lsh(
        cases, schema, n_train=10_000, n_test=2_000,
        hyper=Hyperparams(r=36), seeds=(0, 1, 2), epochs=20)
    ok = mean_learned >= mean_lsh + 0.03
    report(7, "adult-learned-vs-lsh", ok,
           f"learned {mean_learned:.3f} vs lsh {mean_lsh:.3f} "
           f"(need +0.03 margin over 3 seeds)")
    assert mean_learned >= mean_lsh + 0.03


def test_c07s_surrogate_learned_beats_lsh():
    """Same protocol on the noisy synthetic mixed-type fixture (always runs)."""
    cases = []
    for s in range(3):
        cases.append(two_class_fixture(n=800, n_noise=60, flip=0.05,
                                       seed=150 + s, id_start=800 * s))
    pool = [c for chunk in cases for c in chunk]
    mean_learned, mean_lsh = _learned_vs_lsh(
        pool, None, n_train=2_000, n_test=400,
        hyper=Hyperparams(r=36), seeds=(0, 1, 2), epochs=10)
    ok = mean_learned >= mean_lsh + 0.03
    report(7, "surrogate-learned-vs-lsh", ok,
           f"learned {mean_learned:.3f} vs lsh {mean_lsh:.3f} "
           f"(need +0.03 margin over 3 seeds; stands in for the absent "
           f"census data)")
    assert mean_learned >= mean_lsh + 0.03


def test_c08_retrieval_latency():
    """100k cases, d=200, r=24: bucketed retrieval <= 0.25x linear scan."""
    everything = clustered_fixture(n=100_100, n_classes=25, flip=0.08, seed=3)
    corpus, queries = everything[:100_000], everything[100_000:]
    res = train(corpus[:2000], Hyperparams(r=24), epochs=10, seed=5)
    idx = HashIndex.build(corpus, res.params)
    result = bench(idx, res.params, queries, top_n=10, max_radius=2)
    ok = result.ratio_mean <= 0.25
    report(8, "retrieval-latency", ok,
           f"hashed {result.hashed_mean_us:.0f}us vs linear "
           f"{result.linear_mean_us:.0f}us, ratio {result.ratio_mean:.3f} "
           f"(limit 0.25), mean candidates {result.mean_candidates:.0f} "
           f"over {result.n_cases} cases")
    assert result.ratio_mean <= 0.25


def test_c09_retention_updates_help():
    """Streaming under concept drift: updating engine >= frozen in >=4/5 seeds."""
    wins = 0
    details = []
    for seed in range(5):
        pre = two_class_fixture(n=600, n_noise=10, seed=200 + seed)
        post = two_class_fixture(n=400, n_noise=10, seed=900 + seed,
                                 block_rotation=1, id_start=10_000)
        hyper = Hyperparams(k_w=16, k_v=16, r=16, l=2, hidden=32, n_u=50)
        res = train(pre, hyper, epochs=10, seed=seed)
        acc = {}
        for variant, frozen in (("upd", False), ("frz", True)):
            params = res.params.copy()
            idx = HashIndex.build(pre, params)
            engine = CbrEngine(idx, params, top_n=10, no_update=frozen, seed=seed)
            correct = sum(1 for c in post
                          if engine.solve(c, true_label=c.label).correct)
            acc[variant] = correct / len(post)
        wins += acc["upd"] >= acc["frz"]
        details.append(f"{acc['upd']:.2f}/{acc['frz']:.2f}")
    ok = wins >= 4
    report(9, "retention-updates-help", ok,
           f"updating/frozen accuracy per seed: {' '.join(details)}; "
           f"{wins}/5 wins (need >=4)")
    assert wins >= 4


def test_c09b_zero_loss_update_is_bitwise_noop():
    """A retention round with exactly zero loss changes nothing, bit for bit."""
    rng = np.random.default_rng(909)
    hyper = Hyperparams(k_w=4, k_v=4, r=8, l=2, hidden=4, n_u=4)
    params = init_params(hyper, d=6, seed=3)
    params.layers[-1].w[:] = 0.0
    params.layers[-1].b[:] = 60.0  # saturates squash to exactly -1.0
    cases = random_cases(rng, 12, dim=6, nnz=3, n_labels=1)
    idx = HashIndex.build(cases, params)
    before = {n: a.copy() for n, a in params.arrays()}
    codes = {cid: idx.code(cid) for cid in idx.ids()}

    engine = CbrEngine(idx, params, top_n=2, seed=4)
    for c in random_cases(rng, 4, dim=6, nnz=3, n_labels=1, id_start=100):
        engine.retain(c)
    assert engine.n_updates == 1
    unchanged = all(np.array_equal(a, before[n]) for n, a in params.arrays())
    codes_same = all(idx.code(cid) == code for cid, code in codes.items())
    report(9, "retention-zero-loss-noop", unchanged and codes_same,
           "saturated margin: parameters and codes bitwise identical "
           "after the update round")
    assert unchanged
    assert codes_same


def _oracle_auc_binary(y, s):
    wins = ties = 0
    pos = [x for t, x in zip(y, s) if t == 1]
    neg = [x for t, x in zip(y, s) if t == 0]
    for a in pos:
        for b in neg:
            wins += a > b
            ties += a == b
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def _oracle_auc_multiclass(y, maps, labels):
    total, pairs = 0.0, 0
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            a, b = labels[i], labels[j]
            sub = [(t, m) for t, m in zip(y, maps) if t in (a, b)]
            if not any(t == a for t, _ in sub) or not any(t == b for t, _ in sub):
                continue
            a_ab = _oracle_auc_binary([1 if t == a else 0 for t, _ in sub],
                                      [m.get(a, 0.0) for _, m in sub])
            a_ba = _oracle_auc_binary([1 if t == b else 0 for t, _ in sub],
                                      [m.get(b, 0.0) for _, m in sub])
            total += (a_ab + a_ba) / 2
            pairs += 1
    return total / pairs


def test_c10_metric_oracles():
    """accuracy / AUC / Prec@N / AP@N agree with independent recounts, n=100."""
    rng = np.random.default_rng(1010)
    n, labels = 100, [0, 1, 2, 3]
    y_true = [int(v) for v in rng.integers(0, 4, size=n)]
    grid = np.array([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])  # discrete: forces ties
    maps = [{lab: float(rng.choice(grid)) for lab in labels} for _ in range(n)]
    y_pred = [max(m, key=lambda lab: (m[lab], -lab)) for m in maps]

    acc_diff = abs(accuracy(y_true, y_pred)
                   - sum(t == p for t, p in zip(y_true, y_pred)) / n)

    auc_worst = 0.0
    for lab in labels:
        y_bin = [1 if t == lab else 0 for t in y_true]
        s = [m[lab] for m in maps]
        auc_worst = max(auc_worst,
                        abs(auc_binary(y_bin, s) - _oracle_auc_binary(y_bin, s)))

    mc_diff = abs(auc_multiclass(y_true, maps, labels=labels)
                  - _oracle_auc_multiclass(y_true, maps, labels))

    rank_worst = 0.0
    for _ in range(n):
        relevant = set(rng.choice(60, size=int(rng.integers(0, 15)),
                                  replace=False).tolist())
        retrieved = rng.permutation(60)[:10].tolist()
        p = prec_at_n(relevant, retrieved, 10)
        p_oracle = len([x for x in retrieved[:10] if x in relevant]) / 10
        hits, ap_oracle = 0, 0.0
        for rank, rid in enumerate(retrieved[:10], start=1):
            if rid in relevant:
                hits += 1
                ap_oracle += hits / rank
        ap_oracle = ap_oracle / min(len(relevant), 10) if relevant else 0.0
        rank_worst = max(rank_worst, abs(p - p_oracle),
                         abs(ap_at_n(relevant, retrieved, 10) - ap_oracle))
        assert map_at_n([relevant], [retrieved], 10) == \
            ap_at_n(relevant, retrieved, 10)

    worst = max(acc_diff, auc_worst, mc_diff, rank_worst)
    ok = worst <= 1e-12
    report(10, "metric-oracles", ok,
           f"100 instances, max abs deviation {worst:.3g} (tol 1e-12)")
    assert worst <= 1e-12
