from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from casehash import (Hyperparams, NetworkParams, SparseCase, SparseVector, batch_objective,
                      init_params)
from casehash.network import (HashCode, case_sums, forward_rows, interaction, relaxed_output,
                              unpack_words)
from casehash.sparse import cases_to_csr

_WORD_BITS = 64


def make_case(dim, pairs, label=0, case_id=0):
    return SparseCase(id=case_id,
                      features=SparseVector.from_pairs(dim, pairs),
                      label=label)


def random_cases(rng, n, dim, nnz, n_labels=2, id_start=0):
    """Uniform random sparse cases; values in [0.1, 1] so nothing drops out."""
    cases = []
    for k in range(n):
        idx = np.sort(rng.choice(dim, size=min(nnz, dim), replace=False))
        val = rng.uniform(0.1, 1.0, size=len(idx))
        cases.append(SparseCase(
            id=id_start + k,
            features=SparseVector(dim=dim, indices=tuple(int(i) for i in idx),
                                  values=tuple(float(v) for v in val)),
            label=int(rng.integers(n_labels)),
        ))
    return cases


def rows_and_labels(cases):
    """The cases as train sees them: one CSR feature matrix and one int64
    label array, row k being cases[k]."""
    labels = np.array([c.label for c in cases], dtype=np.int64)
    return cases_to_csr(cases, cases[0].features.dim), labels


def reference_fit_ranges(schema, cases):
    """Numeric min/max case by case, implicit zeros counted: the oracle for
    fit_ranges. Fits the schema in place and returns it."""
    numeric = {c.offset: c for c in schema.columns if c.kind == "numeric"}
    lo = {off: np.inf for off in numeric}
    hi = {off: -np.inf for off in numeric}
    for case in cases:
        seen = set()
        for idx, val in zip(case.features.indices, case.features.values):
            if idx in numeric:
                lo[idx] = min(lo[idx], val)
                hi[idx] = max(hi[idx], val)
                seen.add(idx)
        for off in numeric.keys() - seen:
            lo[off] = min(lo[off], 0.0)
            hi[off] = max(hi[off], 0.0)
    for off, col in numeric.items():
        col.vmin = float(lo[off]) if np.isfinite(lo[off]) else 0.0
        col.vmax = float(hi[off]) if np.isfinite(hi[off]) else 0.0
    return schema


def reference_normalize(cases, schema):
    """Min-max scaling entry by entry, clamped, a constant column to 0: the
    oracle for normalize."""
    numeric = {c.offset: c for c in schema.columns if c.kind == "numeric"}
    out = []
    for case in cases:
        pairs = []
        for idx, val in zip(case.features.indices, case.features.values):
            col = numeric.get(idx)
            if col is not None:
                span = col.vmax - col.vmin
                val = 0.0 if span == 0.0 else min(max((val - col.vmin) / span, 0.0), 1.0)
            pairs.append((idx, val))
        out.append(replace(case, features=SparseVector.from_pairs(case.features.dim, pairs)))
    return out


def reference_two_class_fixture(n=2000, n_groups=5, n_categories=4, n_noise=20, flip=0.1,
                                seed=0, block_rotation=0, id_start=0):
    """two_class_fixture row by row and group by group, from the same random
    draws: the oracle for the vectorised fixture."""
    rng = np.random.default_rng(seed)
    half = n_categories // 2
    dim = n_groups * n_categories + n_noise
    labels = np.repeat([0, 1], [n - n // 2, n // 2])
    labels = labels[rng.permutation(n)]
    flips = rng.random((n, n_groups)) < flip
    within = rng.integers(0, half, size=(n, n_groups))
    noise = rng.random((n, n_noise))
    cases = []
    for row in range(n):
        y = int(labels[row])
        pairs = []
        for g in range(n_groups):
            block = (y + block_rotation) % 2
            if flips[row, g]:
                block = 1 - block
            pairs.append((g * n_categories + block * half + int(within[row, g]), 1.0))
        base = n_groups * n_categories
        pairs.extend((base + j, float(noise[row, j])) for j in range(n_noise))
        cases.append(SparseCase(id=id_start + row,
                                features=SparseVector.from_pairs(dim, pairs), label=y))
    return cases


def same_csr(a, b) -> bool:
    """Whether two CSR matrices have the same shape and the same indptr,
    indices and data, value for value."""
    return (a.shape == b.shape and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.data, b.data))


def reference_update_batch(stored, buffer, update_interval, rng, dim):
    """A model update's pairs formed on case objects, as CbrEngine once did:
    the buffered cases still stored, then a reservoir drawn by rng from the
    other stored ids in ascending order, kept in id order, all converted
    with cases_to_csr; each buffer row pairs with every later row. stored
    maps id -> case and buffer holds the retained ids in order. Returns
    (x, i, j, s): the oracle for CbrEngine.update_model's PairBatch."""
    buffered = [stored[cid] for cid in buffer if cid in stored]
    exclude = {c.id for c in buffered}
    pool = [cid for cid in sorted(stored) if cid not in exclude]
    others = []
    if pool:
        picks = rng.choice(len(pool), size=min(update_interval, len(pool)), replace=False)
        others = [stored[pool[int(p)]] for p in sorted(picks)]
    cases = buffered + others
    i, j = np.triu_indices(len(buffered), k=1, m=len(cases))
    labels = np.array([c.label for c in cases], dtype=np.int64)
    return cases_to_csr(cases, dim), i, j, (labels[i] == labels[j]).astype(np.float64)


def to_dense(vector) -> np.ndarray:
    """The dense float vector of a SparseVector."""
    out = np.zeros(vector.dim)
    if vector.indices:
        out[list(vector.indices)] = vector.values
    return out


def write_sparse_text(cases, path) -> None:
    """Inverse of load_sparse_text for already-dense labels; exact round trip."""
    with open(str(path), "w", encoding="utf-8") as fh:
        for case in cases:
            entries = " ".join(
                f"{i}:{v!r}" for i, v in zip(case.features.indices, case.features.values)
            )
            fh.write(f"{case.label} {entries}".rstrip() + "\n")


def to_signs(code: HashCode) -> np.ndarray:
    """A code's components in {-1, +1}, int8."""
    bits = unpack_words([code.words], code.r)[0]
    return bits.astype(np.int8) * 2 - 1


def bit(code: HashCode, m: int) -> int:
    """Bit m of a code: 1 iff component m is +1."""
    return (code.words[m // _WORD_BITS] >> (m % _WORD_BITS)) & 1


def flip(code: HashCode, *bits: int) -> HashCode:
    """The code with the given bits inverted."""
    words = list(code.words)
    for m in bits:
        words[m // _WORD_BITS] ^= 1 << (m % _WORD_BITS)
    return HashCode(r=code.r, words=tuple(words))


def interact(embeddings, v):
    """The network's interaction output for embedding columns (k_w, nnz):
    their running sums, then network.interaction."""
    return interaction(embeddings.sum(axis=1), np.square(embeddings).sum(axis=1), v)


def interact_bruteforce(embeddings, v):
    """Explicit double loop over unordered feature pairs: the oracle for
    the interaction identity."""
    k_v = v.shape[1]
    nnz = embeddings.shape[1]
    z = np.zeros(k_v)
    for k in range(k_v):
        for p in range(nnz):
            for q in range(p + 1, nnz):
                z[k] += embeddings[:, p] @ (embeddings[:, q] * v[:, k])
    return z


def case_output(case, params):
    """The one-row path's relaxed output, the vector hash_case binarizes."""
    return relaxed_output(interaction(*case_sums(case, params), params.v), params)


def forward_batch(cases, params):
    """Relaxed outputs for many cases at once, shape (n, r): forward_rows
    on one CSR matrix of their features."""
    return forward_rows(cases_to_csr(cases, params.d), params)


def relaxed_similarity(out_i, out_j):
    """Inner product of two relaxed outputs; the surrogate for code similarity."""
    return float(out_i @ out_j)


def relabel(cases):
    """Reassign sequential ids 0..n-1 (after splits, before indexing)."""
    return [replace(c, id=i) for i, c in enumerate(cases)]


def similarity_label(a, b) -> int:
    """1 iff the two cases carry the same solution label, else 0. Symmetric."""
    return 1 if a.label == b.label else 0


def pair_loss(s: float, s_hat: float, alpha: float) -> float:
    """Pairwise cross-entropy term log(1 + e^(alpha*s_hat)) - alpha*s*s_hat,
    one pair at a time: the reference for the batched pair terms.

    Evaluated in the overflow-safe form max(t,0) + log(1 + e^-|t|).
    """
    t = alpha * s_hat
    return float(np.logaddexp(0.0, t) - s * t)


def adaptive_loss(s: float, s_hat: float, alpha: float, beta: float, r: int) -> float:
    """Hinge-gated retention loss of one pair, identically zero once the
    margin r*beta holds: the reference for the vectorized adaptive loss.

    s=1: max(0, r*beta - s_hat) * log(1 + e^(-alpha*s_hat))
    s=0: max(0, r*beta + s_hat) * log(1 + e^(+alpha*s_hat))
    """
    margin = r * beta
    if s == 1:
        return max(0.0, margin - s_hat) * float(np.logaddexp(0.0, -alpha * s_hat))
    return max(0.0, margin + s_hat) * float(np.logaddexp(0.0, alpha * s_hat))


def zero_gradients(params) -> NetworkParams:
    """A gradient of params' layout with every entry zero."""
    out = params.copy()
    for _, arr in out.arrays():
        arr[...] = 0.0
    return out


def finite_diff_grad(batch, params, eps: float = 1e-5) -> NetworkParams:
    """Central differences of casehash's batch_objective, one scalar
    parameter at a time: the oracle for the analytic gradient."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    out = zero_gradients(params)
    for (_, arr), (_, garr) in zip(params.arrays(), out.arrays()):
        flat, gflat = arr.ravel(), garr.ravel()
        for t in range(flat.size):
            orig = flat[t]
            flat[t] = orig + eps
            f_plus = batch_objective(batch, params)
            flat[t] = orig - eps
            f_minus = batch_objective(batch, params)
            flat[t] = orig
            gflat[t] = (f_plus - f_minus) / (2.0 * eps)
    return out


def hamming_ball(code, radius: int):
    """Yield every code within the given Hamming radius, nearest level first,
    by explicit enumeration of the flipped bits."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    yield code
    for t in range(1, radius + 1):
        for bits in combinations(range(code.r), t):
            yield flip(code, *bits)


@pytest.fixture
def small_hyper():
    return Hyperparams(k_w=6, k_v=5, r=8, l=2, hidden=7)


@pytest.fixture
def small_params(small_hyper):
    return init_params(small_hyper, d=12, seed=42)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Filled in by the acceptance tests; replayed after the run so the
# per-criterion lines survive output capturing.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
