"""The benchmark's checks must pass on true results and fail on corrupted ones.

Run with: python3 -m pytest benchmarks/test_checks.py -q
"""

import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import casehash as ch  # noqa: E402
from checks import (CheckError, OracleStore, check_codes, check_floor,  # noqa: E402
                    check_retrieval, check_roundtrip, check_stream_counts,
                    check_training, check_vote, euclidean, oracle_outputs, pack_signs,
                    words_of)

TOP_N = 10
MAX_RADIUS = 2


@pytest.fixture(scope="module")
def world():
    cases = ch.clustered_fixture(n=3040, n_groups=10, n_categories=6, n_classes=5,
                                 flip=0.2, seed=7)
    stored, queries = cases[:3000], cases[3000:]
    params = ch.init_params(ch.Hyperparams(k_w=8, k_v=8, r=12, l=2, hidden=16), d=60,
                            seed=3)
    index = ch.HashIndex.build(stored, params)
    words = words_of([index.code(c.id) for c in stored])
    store = OracleStore(stored, words)
    engine = ch.CbrEngine(index, params, top_n=TOP_N, max_radius=MAX_RADIUS,
                          no_update=True)
    q_words = pack_signs(oracle_outputs(params, queries))
    results = [engine.suggest(q) for q in queries]
    return dict(stored=stored, queries=queries, params=params, index=index,
                words=words, store=store, q_words=q_words, results=results)


def _check(world, k, result, candidates=None):
    q = world["queries"][k]
    check_retrieval(result, world["store"], q, world["q_words"][k], TOP_N, MAX_RADIUS,
                    candidates)


def _farther_candidate(world, k):
    """A candidate of query k that is not returned and lies farther than all
    returned ids, with its distance."""
    res = world["results"][k].retrieval
    cands = sorted(world["index"].candidates_within(
        world["params"].code(world["queries"][k]), res.radius_used) - set(res.ids))
    d = euclidean(world["queries"][k], [world["index"].case(i) for i in cands])
    far = int(np.argmax(d))
    assert d[far] > res.distances[-1]
    return cands[far]


def test_true_results_pass(world):
    check_codes(oracle_outputs(world["params"], world["stored"]), world["words"], "stored")
    labels = {c.id: c.label for c in world["stored"]}
    for k, sug in enumerate(world["results"]):
        res = sug.retrieval
        cands = world["index"].candidates_within(world["params"].code(world["queries"][k]),
                                                 res.radius_used)
        _check(world, k, res, cands)
        check_vote(sug.label, res.ids, labels,
                   euclidean(world["queries"][k], [world["index"].case(i) for i in res.ids]),
                   "vote")


def test_dropped_candidate_fails(world):
    res = world["results"][0].retrieval
    with pytest.raises(CheckError, match="candidates"):
        _check(world, 0, dataclasses.replace(res, n_candidates=res.n_candidates - 1))
    cands = world["index"].candidates_within(world["params"].code(world["queries"][0]),
                                             res.radius_used)
    dropped = set(cands) - {max(set(cands) - set(res.ids))}
    with pytest.raises(CheckError, match="candidate set"):
        _check(world, 0, res, dropped)


def test_dropped_neighbour_fails(world):
    res = world["results"][1].retrieval
    with pytest.raises(CheckError):
        _check(world, 1, dataclasses.replace(res, ids=res.ids[:-1]))


def test_swapped_neighbour_fails(world):
    res = world["results"][2].retrieval
    swapped = res.ids[:-1] + [_farther_candidate(world, 2)]
    with pytest.raises(CheckError, match="exact top"):
        _check(world, 2, dataclasses.replace(res, ids=swapped))


def test_reordered_neighbours_fail(world):
    for k, sug in enumerate(world["results"]):
        d = sug.retrieval.distances
        if d[0] < d[-1]:
            ids = list(sug.retrieval.ids)
            ids[0], ids[-1] = ids[-1], ids[0]
            with pytest.raises(CheckError):
                _check(world, k, dataclasses.replace(sug.retrieval, ids=ids))
            return
    pytest.fail("no query with distinct neighbour distances")


def test_tied_neighbours_out_of_id_order_fail(world):
    for k, sug in enumerate(world["results"]):
        d = sug.retrieval.distances
        for i in range(len(d) - 1):
            if d[i] == d[i + 1]:
                ids = list(sug.retrieval.ids)
                ids[i], ids[i + 1] = ids[i + 1], ids[i]
                with pytest.raises(CheckError, match="id order"):
                    _check(world, k, dataclasses.replace(sug.retrieval, ids=ids))
                return
    pytest.fail("no query with tied neighbours")


def test_wrong_radius_fails(world):
    for k, sug in enumerate(world["results"]):
        res = sug.retrieval
        if res.radius_used < MAX_RADIUS:
            with pytest.raises(CheckError):
                _check(world, k, dataclasses.replace(res, radius_used=res.radius_used + 1))
        if res.radius_used > 0:
            with pytest.raises(CheckError):
                _check(world, k, dataclasses.replace(res, radius_used=res.radius_used - 1))


def test_flipped_code_bit_fails(world):
    outputs = oracle_outputs(world["params"], world["stored"])
    row = int(np.argmax(np.abs(outputs[:, 3])))
    words = world["words"].copy()
    words[row, 0] ^= np.uint64(1 << 3)
    with pytest.raises(CheckError, match="bit 3"):
        check_codes(outputs, words, "stored")


def test_flipped_stored_code_fails_retrieval(world):
    """A stored code that disagrees with the query's ball changes the filter."""
    res = world["results"][3].retrieval
    words = world["words"].copy()
    store = world["store"]
    row = store.row_of[res.ids[0]]
    words[row, 0] ^= np.uint64((1 << 12) - 1)  # move it far away in Hamming space
    bad = OracleStore(world["stored"], words)
    with pytest.raises(CheckError):
        check_retrieval(res, bad, world["queries"][3], world["q_words"][3], TOP_N,
                        MAX_RADIUS)


def test_wrong_vote_fails(world):
    labels = {c.id: c.label for c in world["stored"]}
    sug = world["results"][4]
    dists = euclidean(world["queries"][4], [world["index"].case(i) for i in sug.retrieval.ids])
    wrong = next(l for l in range(5) if l != sug.label)
    with pytest.raises(CheckError, match="voted"):
        check_vote(wrong, sug.retrieval.ids, labels, dists, "vote")
    with pytest.raises(CheckError, match="voted"):
        check_vote(None, sug.retrieval.ids, labels, dists, "vote")


def test_vote_tie_break_by_distance_then_label():
    labels = {1: 0, 2: 1, 3: 0, 4: 1}
    check_vote(1, [1, 2, 3, 4], labels, [2.0, 1.0, 2.0, 1.0], "tie on votes")
    with pytest.raises(CheckError):
        check_vote(0, [1, 2, 3, 4], labels, [2.0, 1.0, 2.0, 1.0], "tie on votes")
    check_vote(0, [1, 2, 3, 4], labels, [1.0, 1.0, 1.0, 1.0], "tie on both")
    with pytest.raises(CheckError):
        check_vote(1, [1, 2, 3, 4], labels, [1.0, 1.0, 1.0, 1.0], "tie on both")


def test_roundtrip_detects_changes(world, tmp_path):
    stored = world["stored"][:200]
    index = ch.HashIndex.build(stored, world["params"])
    index.save(tmp_path / "a.idx")
    loaded = ch.HashIndex.load(tmp_path / "a.idx")
    words = words_of([index.code(c.id) for c in stored])
    check_roundtrip(loaded, stored, words)

    relabeled = stored[:5] + [dataclasses.replace(stored[5], label=stored[5].label + 1)]
    with pytest.raises(CheckError, match="label"):
        check_roundtrip(loaded, relabeled + stored[6:], words)
    flipped = words.copy()
    flipped[7, 0] ^= np.uint64(1)
    with pytest.raises(CheckError, match="code"):
        check_roundtrip(loaded, stored, flipped)
    with pytest.raises(CheckError, match="ids"):
        check_roundtrip(loaded, stored[1:], words[1:])


def test_stream_counts():
    check_stream_counts(20_300, 20_000, 300, 3, 100)
    with pytest.raises(CheckError):
        check_stream_counts(20_299, 20_000, 300, 3, 100)
    with pytest.raises(CheckError):
        check_stream_counts(20_300, 20_000, 300, 2, 100)


def test_training_and_floors():
    rec = lambda obj: type("Epoch", (), {"objective": obj})()  # noqa: E731
    check_training([rec(5.0), rec(3.0)], 2, False, False)
    with pytest.raises(CheckError, match="did not fall"):
        check_training([rec(3.0), rec(5.0)], 2, False, False)
    with pytest.raises(CheckError):
        check_training([rec(5.0)], 2, True, False)
    with pytest.raises(CheckError):
        check_training([rec(5.0), rec(3.0)], 2, False, True)
    check_floor("accuracy", 0.95, 0.90)
    with pytest.raises(CheckError):
        check_floor("accuracy", 0.89, 0.90)
