import numpy as np
import pytest

from casehash import Hyperparams, SparseCase, SparseVector, init_params
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
