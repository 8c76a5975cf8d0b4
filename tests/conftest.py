from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from casehash import (Gradients, Hyperparams, SparseCase, SparseVector, batch_objective,
                      init_params)
from casehash.network import case_sums, interaction, relaxed_output


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


def zero_gradients(params) -> Gradients:
    return Gradients(
        w_p=np.zeros_like(params.w_p),
        v=np.zeros_like(params.v),
        layers=[(np.zeros_like(l.w), np.zeros_like(l.b)) for l in params.layers],
    )


def finite_diff_grad(batch, params, eps: float = 1e-5) -> Gradients:
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
    """Yield every code within the given Hamming radius, nearest level first:
    the explicit enumeration the index's XOR-mask probes are checked against."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    yield code
    for t in range(1, radius + 1):
        for bits in combinations(range(code.r), t):
            yield code.flip(*bits)


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
