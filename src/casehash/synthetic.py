"""Deterministic synthetic case generators for experiments and benchmarks.

two_class_fixture builds a mixed-type dataset: a few informative one-hot
groups whose active block is tied to the class, plus dense numeric noise in
[0, 1]; it fills one feature matrix with numpy and turns its rows into cases
with rows_to_cases. clustered_fixture builds a large pure one-hot dataset
with one preferred category per (class, group) for latency benchmarking,
straight from its index arrays, which at 100k cases is faster than going
through a CSR matrix. Both are fully determined by their seed.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

from .sparse import SparseCase, SparseVector, rows_to_cases


def two_class_fixture(n: int = 2000, n_groups: int = 5, n_categories: int = 4,
                      n_noise: int = 20, flip: float = 0.1, seed: int = 0,
                      block_rotation: int = 0, id_start: int = 0) -> list[SparseCase]:
    """Binary-labeled cases with categorical signal and numeric noise.

    Each informative group splits its categories into two half-size blocks;
    class y draws from block (y + block_rotation) % 2, except with
    probability `flip` it draws from the other block. Rotating the block
    assignment yields a concept-drifted continuation of the same feature
    space. Noise features are iid uniform [0, 1], already normalized.
    """
    if n_categories % 2 != 0 or n_categories < 2:
        raise ValueError("n_categories must be even and >= 2")
    if not 0.0 <= flip < 0.5:
        raise ValueError("flip must be in [0, 0.5)")
    rng = np.random.default_rng(seed)
    half = n_categories // 2
    dim = n_groups * n_categories + n_noise

    labels = np.repeat([0, 1], [n - n // 2, n // 2])
    labels = labels[rng.permutation(n)]
    flips = rng.random((n, n_groups)) < flip
    within = rng.integers(0, half, size=(n, n_groups))
    noise = rng.random((n, n_noise))

    # a flip moves a group's draw to the other block
    block = (labels[:, None] + block_rotation + flips) % 2
    x = np.zeros((n, dim))
    x[np.arange(n)[:, None], np.arange(n_groups) * n_categories + block * half + within] = 1.0
    x[:, n_groups * n_categories:] = noise
    return rows_to_cases(sp.csr_matrix(x), 0, n, np.arange(id_start, id_start + n), labels)


def clustered_fixture(n: int = 100_000, n_groups: int = 20, n_categories: int = 10,
                      n_classes: int = 10, flip: float = 0.05, seed: int = 0,
                      id_start: int = 0) -> list[SparseCase]:
    """Large one-hot dataset: one preferred category per (class, group).

    dim = n_groups * n_categories; every case activates exactly one category
    per group, the class-preferred one except with probability `flip`.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    rng = np.random.default_rng(seed)
    dim = n_groups * n_categories
    pattern = rng.integers(0, n_categories, size=(n_classes, n_groups))

    labels = rng.integers(0, n_classes, size=n)
    cats = pattern[labels]  # (n, n_groups)
    flip_mask = rng.random((n, n_groups)) < flip
    random_cats = rng.integers(0, n_categories, size=(n, n_groups))
    cats = np.where(flip_mask, random_cats, cats)
    offsets = np.arange(n_groups) * n_categories
    indices = cats + offsets  # strictly ascending per row

    ones = (1.0,) * n_groups
    return [
        SparseCase(id=id_start + row,
                   features=SparseVector(dim=dim, indices=tuple(ind), values=ones),
                   label=label)
        for row, (ind, label) in enumerate(zip(indices.tolist(), labels.tolist()))
    ]
