"""Property tests for pair sampling and PairBatch validation.

sample_pairs is vectorised; reference_sample_pairs below is the double-loop
version it replaced, kept as the oracle. Both draw over the rows of the
same (x, labels) and must return the same pairs in the same order from the
same random stream.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casehash import PairBatch, sample_pairs

from conftest import make_case, rows_and_labels


def reference_sample_pairs(labels, batch_size, seed, neg_ratio=1.0):
    """Round-robin label draw and double loop over pairs, given one label per
    row; returns (i, j, s, unbalanced)."""
    if len(labels) < 2:
        raise ValueError("need at least 2 cases to form pairs")
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    rng = np.random.default_rng(seed)

    by_label = {}
    for pos, label in enumerate(labels):
        by_label.setdefault(label, []).append(pos)
    pools = [list(rng.permutation(by_label[lab])) for lab in sorted(by_label)]
    chosen = []
    cursor = 0
    while len(chosen) < min(batch_size, len(labels)):
        pool = pools[cursor % len(pools)]
        if pool:
            chosen.append(int(pool.pop()))
        cursor += 1
        if all(not p for p in pools):
            break
    chosen.sort()

    pos_pairs, neg_pairs = [], []
    for a in range(len(chosen)):
        for b in range(a + 1, len(chosen)):
            p, q = chosen[a], chosen[b]
            if labels[p] == labels[q]:
                pos_pairs.append((p, q))
            else:
                neg_pairs.append((p, q))

    unbalanced = not pos_pairs or not neg_pairs
    if unbalanced:
        if not pos_pairs and not neg_pairs:
            raise ValueError("no pairs could be formed")
        kept_neg = neg_pairs
    else:
        target = min(len(neg_pairs), int(round(len(pos_pairs) * neg_ratio)))
        target = max(target, 1)
        keep = rng.choice(len(neg_pairs), size=target, replace=False)
        kept_neg = [neg_pairs[int(k)] for k in sorted(keep)]

    pairs = pos_pairs + kept_neg
    s = [1.0] * len(pos_pairs) + [0.0] * len(kept_neg)
    return [p for p, _ in pairs], [q for _, q in pairs], s, unbalanced


def labelled_cases(labels):
    return [make_case(3, [(k % 3, 1.0)], label=lab, case_id=k)
            for k, lab in enumerate(labels)]


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(st.integers(-3, 6), min_size=2, max_size=60),
       batch_size=st.integers(2, 70),
       seed=st.integers(0, 2 ** 32 - 1),
       neg_ratio=st.sampled_from([0.0, 0.3, 1.0, 1.5, 4.0]))
def test_sample_pairs_matches_reference(labels, batch_size, seed, neg_ratio):
    x, label_array = rows_and_labels(labelled_cases(labels))
    want_i, want_j, want_s, want_unbalanced = reference_sample_pairs(
        labels, batch_size, seed, neg_ratio)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        got = sample_pairs(x, label_array, batch_size, seed, neg_ratio)
    assert got.x is x
    assert got.i.tolist() == want_i
    assert got.j.tolist() == want_j
    assert got.s.tolist() == want_s
    assert got.unbalanced == want_unbalanced


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 40), label=st.integers(0, 5),
       batch_size=st.integers(2, 50), seed=st.integers(0, 2 ** 32 - 1))
def test_single_label_draw_matches_reference(n, label, batch_size, seed):
    x, labels = rows_and_labels(labelled_cases([label] * n))
    want_i, want_j, want_s, _ = reference_sample_pairs([label] * n, batch_size, seed)
    with pytest.warns(UserWarning):
        got = sample_pairs(x, labels, batch_size, seed)
    assert got.unbalanced
    assert (got.i.tolist(), got.j.tolist(), got.s.tolist()) == (want_i, want_j, want_s)


pair_lists = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=30)


@settings(max_examples=300, deadline=None)
@given(pairs=pair_lists)
def test_pair_batch_rejects_self_and_duplicate_pairs(pairs):
    x, _ = rows_and_labels(labelled_cases([0] * 13))
    i = [a for a, _ in pairs]
    j = [b for _, b in pairs]
    unordered = [(min(a, b), max(a, b)) for a, b in pairs]
    valid = all(a != b for a, b in pairs) and len(set(unordered)) == len(unordered)
    if valid:
        batch = PairBatch(x=x, i=i, j=j, s=[1.0] * len(pairs))
        assert len(batch) == len(pairs)
    else:
        with pytest.raises(ValueError):
            PairBatch(x=x, i=i, j=j, s=[1.0] * len(pairs))
