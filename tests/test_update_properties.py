"""Property test for the batch of a model update.

Hypothesis draws a small case base, an update interval and a sequence of
retains and removes, removes of buffered ids among them. After each step
the engine's buffer must hold the retained ids in order, and each round's
PairBatch (the rows of x, i, j and s) must equal reference_update_batch,
which forms the batch from case objects with a generator seeded as the
engine's is.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import casehash.cbr as cbr_module
from casehash import CbrEngine, HashIndex, Hyperparams, init_params

from conftest import random_cases, reference_update_batch, same_csr

DIM = 6
HYPER = Hyperparams(k_w=3, k_v=3, r=6, l=2, hidden=3)

operations = st.lists(st.one_of(st.just(("retain", 0)),
                                st.tuples(st.sampled_from(["remove", "remove_buffered"]),
                                          st.integers(0, 1000))),
                      max_size=30)


def same_batch(batch, want) -> bool:
    x, i, j, s = want
    return (same_csr(batch.x, x) and batch.i.tolist() == i.tolist()
            and batch.j.tolist() == j.tolist() and batch.s.tolist() == s.tolist())


@settings(max_examples=60, deadline=None)
@given(n_base=st.integers(1, 8), n_u=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       ops=operations)
def test_update_batches_match_the_reference(n_base, n_u, seed, ops):
    rng = np.random.default_rng(seed)
    base = random_cases(rng, n_base, dim=DIM, nnz=3, n_labels=3)
    params = init_params(HYPER, d=DIM, seed=1)
    idx = HashIndex.build(base, params)
    # one step per round, so a round with pairs makes one objective call
    eng = CbrEngine(idx, params, top_n=2, update_interval=n_u, update_epochs=1, seed=seed)
    stored, buffer = {c.id: c for c in base}, []
    oracle_rng = np.random.default_rng(seed)
    seen = []
    real = cbr_module.adaptive_objective_and_grad

    def spy(batch, coder):
        seen.append(batch)
        return real(batch, coder)

    cbr_module.adaptive_objective_and_grad = spy
    try:
        next_id = 100
        for op, k in ops:
            if op == "retain":
                case = random_cases(rng, 1, dim=DIM, nnz=3, n_labels=3, id_start=next_id)[0]
                next_id += 1
                calls = len(seen)
                assert eng.retain(case)[0]
                stored[case.id] = case
                buffer.append(case.id)
                if len(buffer) == n_u:
                    want = reference_update_batch(stored, buffer, n_u, oracle_rng, DIM)
                    buffer.clear()
                    assert eng.last_update.pairs == len(want[1])
                    assert len(seen) == calls + bool(len(want[1]))
                    if len(want[1]):
                        assert same_batch(seen[-1], want)
            else:
                pool = sorted(stored) if op == "remove" else [c for c in buffer if c in stored]
                if pool:
                    cid = pool[k % len(pool)]
                    assert idx.remove(cid) == stored.pop(cid)
            assert eng.buffer == buffer
    finally:
        cbr_module.adaptive_objective_and_grad = real
