"""Property tests for .chn checkpoints: an exact round trip, a byte-identical
re-save, and a DataFormatError for every truncated prefix of a file.

The parameters are drawn from a normal distribution with a few exact zeros
of both signs, so the round trip is checked bit for bit, not just by value.
Code lengths run to 130, three 64-bit words.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casehash import DataFormatError, Hyperparams, init_params, load_checkpoint, save_checkpoint

hypers = st.builds(Hyperparams, k_w=st.integers(1, 8), k_v=st.integers(1, 8),
                   r=st.integers(1, 130), l=st.integers(1, 4), hidden=st.integers(1, 9),
                   first_order=st.booleans())


def structure(hyper: Hyperparams):
    """The fields a checkpoint stores; hidden counts only through layer_sizes,
    since a one-layer network has no hidden width."""
    return hyper.k_w, hyper.first_order, hyper.layer_sizes()


def random_params(hyper: Hyperparams, d: int, seed: int):
    params = init_params(hyper, d=d, seed=seed)
    rng = np.random.default_rng(seed)
    for _, arr in params.arrays():
        arr[...] = rng.standard_normal(arr.shape)
        arr.flat[rng.integers(arr.size)] = rng.choice([0.0, -0.0])
    return params


@settings(max_examples=80, deadline=None)
@given(hyper=hypers, d=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1))
def test_round_trip_is_exact_and_byte_stable(hyper, d, seed):
    params = random_params(hyper, d, seed)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.chn"), Path(tmp, "second.chn")
        save_checkpoint(params, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        data = first.read_bytes()
        assert second.read_bytes() == data
    # the magic, l + 8 uint32 header fields, then every parameter as float64
    n_values = sum(arr.size for _, arr in params.arrays())
    assert len(data) == 4 + 4 * (hyper.l + 8) + 8 * n_values
    assert loaded.d == d
    assert structure(loaded.hyper) == structure(hyper)
    for (name, want), (got_name, got) in zip(params.arrays(), loaded.arrays(), strict=True):
        assert got_name == name
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_every_truncated_prefix_is_rejected(tmp_path):
    hyper = Hyperparams(k_w=3, k_v=2, r=70, l=3, hidden=3, first_order=True)
    whole = tmp_path / "whole.chn"
    save_checkpoint(random_params(hyper, d=4, seed=1), whole)
    data = whole.read_bytes()
    cut = tmp_path / "cut.chn"
    for size in range(len(data)):
        cut.write_bytes(data[:size])
        want = "not a checkpoint file" if size < 4 else "truncated checkpoint"
        with pytest.raises(DataFormatError, match=want):
            load_checkpoint(cut)
