"""The learned hash function: sparse case -> r-bit binary code.

Pipeline: per-feature position embedding (value times a learned slot vector),
second-order multiview interaction over all active-feature pairs, a stack of
fully-connected layers, and elementwise sign binarization. The interaction is
computed with the sum-of-squares identity

    z_k = 1/2 * sum_m [ (sum_p e_mp)^2 - sum_p e_mp^2 ] * v_mk

which touches only nonzero features, so the cost is O(d_n * k_w * k_v) for a
case with d_n active features. A quadratic-cost pairwise evaluation is kept as
a test oracle (interact_bruteforce).

forward/hash_case are pure reads of the parameters and safe to run
concurrently; training mutates parameters under exclusive access.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .sparse import SparseCase

CHECKPOINT_MAGIC = b"CHNV"
CHECKPOINT_VERSION = 1

_WORD_BITS = 64


class DivergenceError(ArithmeticError):
    """Non-finite value met during a forward or gradient computation."""


@dataclass
class Hyperparams:
    """Network and lifecycle hyperparameters with their default settings."""

    k_w: int = 64          # feature embedding dimension
    k_v: int = 64          # interaction view dimension
    r: int = 36            # code length in bits
    l: int = 3             # number of fully-connected layers
    hidden: int = 128      # width of hidden FC layers (default stack 64-128-128-r)
    alpha: float = 0.6     # sigmoid bandwidth of the pair likelihood
    lambda_: float = 0.2   # quantization regularizer weight
    beta: float = 0.5      # retention margin offset (margin is r * beta)
    n_u: int = 100         # retention update cadence
    top_n: int = 10        # retrieved-case count N
    first_order: bool = False  # augment cases with a constant-1 slot

    def __post_init__(self):
        for name in ("k_w", "k_v", "r", "l", "hidden", "n_u", "top_n"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")
        if not 0.0 <= self.lambda_ < 1.0:
            raise ValueError("lambda_ must lie in [0, 1)")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")

    def layer_sizes(self) -> list[int]:
        return [self.k_v] + [self.hidden] * (self.l - 1) + [self.r]


@dataclass
class FcLayer:
    w: np.ndarray  # (out, in)
    b: np.ndarray  # (out,)
    activation: str  # "relu" | "squash"


@dataclass
class NetworkParams:
    """All learnable state of the hash function.

    w_p columns are per-feature-slot embedding vectors (one extra column for
    the constant slot when first_order is set); v mixes embedding rows into
    views; layers map the k_v interaction output down to r squashed units.
    """

    d: int                 # case feature dimension (before constant augmentation)
    w_p: np.ndarray        # (k_w, d [+1])
    v: np.ndarray          # (k_w, k_v)
    layers: list[FcLayer]
    hyper: Hyperparams

    def arrays(self):
        """Named parameter arrays in canonical order (for optimizers/serialization)."""
        yield "w_p", self.w_p
        yield "v", self.v
        for i, layer in enumerate(self.layers, start=1):
            yield f"w{i}", layer.w
            yield f"b{i}", layer.b

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            d=self.d,
            w_p=self.w_p.copy(),
            v=self.v.copy(),
            layers=[FcLayer(l.w.copy(), l.b.copy(), l.activation) for l in self.layers],
            hyper=self.hyper,
        )

    @property
    def r(self) -> int:
        return self.hyper.r

    def code(self, case: SparseCase) -> "HashCode":
        return hash_case(case, self)

    def code_batch(self, cases) -> list["HashCode"]:
        if not cases:
            return []
        return pack_rows(forward_batch(cases, self))


@dataclass(frozen=True)
class HashCode:
    """r-bit code in {-1,+1}^r, bit-packed: bit m set <=> component m is +1.

    words are 64-bit little-endian, word 0 holds bits 0..63; unused high bits
    stay zero so equal codes compare equal.
    """

    r: int
    words: tuple[int, ...]

    def __post_init__(self):
        need = (self.r + _WORD_BITS - 1) // _WORD_BITS
        if len(self.words) != need:
            raise ValueError(f"expected {need} words for r={self.r}")
        spare = need * _WORD_BITS - self.r
        if spare and (self.words[-1] >> (_WORD_BITS - spare)):
            raise ValueError("unused high bits must be zero")

    @staticmethod
    def from_signs(values) -> "HashCode":
        """Pack a real vector: component m is +1 iff values[m] >= 0."""
        values = np.asarray(values)
        r = values.shape[0]
        words = []
        for start in range(0, r, _WORD_BITS):
            word = 0
            for m in range(start, min(start + _WORD_BITS, r)):
                if values[m] >= 0:
                    word |= 1 << (m - start)
            words.append(word)
        return HashCode(r=r, words=tuple(words))

    def to_signs(self) -> np.ndarray:
        out = np.empty(self.r, dtype=np.int8)
        for m in range(self.r):
            out[m] = 1 if (self.words[m // _WORD_BITS] >> (m % _WORD_BITS)) & 1 else -1
        return out

    def bit(self, m: int) -> int:
        return (self.words[m // _WORD_BITS] >> (m % _WORD_BITS)) & 1

    def flip(self, *bits: int) -> "HashCode":
        words = list(self.words)
        for m in bits:
            words[m // _WORD_BITS] ^= 1 << (m % _WORD_BITS)
        return HashCode(r=self.r, words=tuple(words))


def hamming_distance(a: HashCode, b: HashCode) -> int:
    """Number of differing bits; equals (r - <a, b>) / 2 on sign vectors."""
    if a.r != b.r:
        raise ValueError(f"code length mismatch: {a.r} vs {b.r}")
    return sum((wa ^ wb).bit_count() for wa, wb in zip(a.words, b.words))


def inner_product(a: HashCode, b: HashCode) -> int:
    """<a, b> over the +-1 components; equals r - 2 * hamming distance."""
    return a.r - 2 * hamming_distance(a, b)


def squash(x):
    """Last-layer activation 2/(1+e^x) - 1, i.e. -tanh(x/2); range (-1, 1)."""
    return -np.tanh(np.asarray(x, dtype=float) / 2.0)


def squash_grad_from_output(u):
    """d squash / dx expressed through the output u: -(1 - u^2) / 2."""
    return -(1.0 - np.square(u)) / 2.0


def relu(x):
    return np.maximum(x, 0.0)


@dataclass
class ForwardTrace:
    """Everything the backward pass needs from one case's forward run.

    Holds the active-feature embeddings with the per-row running sums of the
    interaction identity (sum e and sum e^2), the interaction output, and each
    FC layer's pre-activation and output. outputs[-1] is the relaxed code.
    """

    active_indices: np.ndarray   # active slots, constant slot included if used
    active_values: np.ndarray
    embeddings: np.ndarray       # (k_w, nnz), column t = value_t * w_p[:, slot_t]
    sum_e: np.ndarray            # (k_w,)
    sum_e_sq: np.ndarray         # (k_w,)
    z: np.ndarray                # (k_v,) interaction output
    pre: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def output(self) -> np.ndarray:
        return self.outputs[-1]


def _active_entries(case: SparseCase, params: NetworkParams):
    idx = np.fromiter(case.features.indices, dtype=np.int64, count=case.features.nnz)
    val = np.fromiter(case.features.values, dtype=np.float64, count=case.features.nnz)
    if params.hyper.first_order:
        idx = np.append(idx, params.d)
        val = np.append(val, 1.0)
    return idx, val


def embed_features(case: SparseCase, w_p: np.ndarray):
    """Per-feature embeddings e_j = x_j * w_p[:, j] for the nonzero features.

    Zero-valued features emit nothing (their embedding is the zero vector and
    is absorbed by every downstream sum). Returns (active_indices, E) with E of
    shape (k_w, nnz).
    """
    if case.features.dim != w_p.shape[1]:
        raise ValueError(
            f"case dim {case.features.dim} != embedding columns {w_p.shape[1]}"
        )
    idx = np.fromiter(case.features.indices, dtype=np.int64, count=case.features.nnz)
    val = np.fromiter(case.features.values, dtype=np.float64, count=case.features.nnz)
    return idx, w_p[:, idx] * val


def interact(embeddings: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Sum of pairwise embedding interactions per view, in linear time.

    Equals interact_bruteforce via the identity
    sum_{p<q} <e_p, e_q * v_k> = 1/2 sum_m [(sum_p e_mp)^2 - sum_p e_mp^2] v_mk.
    """
    s1 = embeddings.sum(axis=1)
    s2 = np.square(embeddings).sum(axis=1)
    return 0.5 * (v.T @ (np.square(s1) - s2))


def interact_bruteforce(embeddings: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Explicit double loop over unordered feature pairs. Test oracle only."""
    k_v = v.shape[1]
    nnz = embeddings.shape[1]
    z = np.zeros(k_v)
    for k in range(k_v):
        for p in range(nnz):
            for q in range(p + 1, nnz):
                z[k] += embeddings[:, p] @ (embeddings[:, q] * v[:, k])
    return z


def forward(case: SparseCase, params: NetworkParams) -> ForwardTrace:
    """Run the full network on one case, recording the backward-pass trace.

    Hidden layers use a rectifier; the last layer uses the squashing
    activation, so outputs[-1] lies componentwise in (-1, 1).
    """
    if case.features.dim != params.d:
        raise ValueError(f"case dim {case.features.dim} != network dim {params.d}")
    idx, val = _active_entries(case, params)
    emb = params.w_p[:, idx] * val
    s1 = emb.sum(axis=1) if emb.size else np.zeros(params.w_p.shape[0])
    s2 = np.square(emb).sum(axis=1) if emb.size else np.zeros(params.w_p.shape[0])
    z = 0.5 * (params.v.T @ (np.square(s1) - s2))

    trace = ForwardTrace(
        active_indices=idx, active_values=val,
        embeddings=emb, sum_e=s1, sum_e_sq=s2, z=z,
    )
    h = z
    for layer in params.layers:
        pre = layer.w @ h + layer.b
        h = relu(pre) if layer.activation == "relu" else squash(pre)
        trace.pre.append(pre)
        trace.outputs.append(h)
    if not np.all(np.isfinite(trace.output)):
        raise DivergenceError("non-finite network output")
    return trace


def forward_batch(cases, params: NetworkParams) -> np.ndarray:
    """Relaxed outputs for many cases at once, shape (n, r).

    Matches forward() case by case up to float rounding from the batched
    matrix products; used for bulk code generation.
    """
    from .sparse import cases_to_csr

    x = cases_to_csr(cases, params.d, extra_ones_column=params.hyper.first_order)
    s1 = x @ params.w_p.T               # (n, k_w)
    s2 = x.multiply(x) @ (params.w_p ** 2).T
    h = 0.5 * ((np.square(s1) - s2) @ params.v)
    for layer in params.layers:
        pre = h @ layer.w.T + layer.b
        h = relu(pre) if layer.activation == "relu" else squash(pre)
    if not np.all(np.isfinite(h)):
        raise DivergenceError("non-finite network output")
    return h


def pack_rows(outputs: np.ndarray) -> list[HashCode]:
    """Binarize a (n, r) output block into packed codes, sign(0) = +1."""
    outputs = np.atleast_2d(outputs)
    n, r = outputs.shape
    bits = (outputs >= 0).astype(np.uint64)
    n_words = (r + _WORD_BITS - 1) // _WORD_BITS
    words = np.zeros((n, n_words), dtype=np.uint64)
    for w in range(n_words):
        chunk = bits[:, w * _WORD_BITS:(w + 1) * _WORD_BITS]
        weights = (np.uint64(1) << np.arange(chunk.shape[1], dtype=np.uint64))
        words[:, w] = (chunk * weights).sum(axis=1, dtype=np.uint64)
    return [HashCode(r=r, words=tuple(int(x) for x in words[i])) for i in range(n)]


def hash_case(case: SparseCase, params: NetworkParams) -> HashCode:
    """Binarize the network output: bit m is -1 iff output m < 0, else +1."""
    return HashCode.from_signs(forward(case, params).output)


def init_params(hyper: Hyperparams, d: int, seed: int) -> NetworkParams:
    """Fresh parameters, uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)), zero biases.

    The embedding matrix uses fan_in 1 (each column scales a single feature
    value). Deterministic for a fixed seed.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    d_eff = d + 1 if hyper.first_order else d
    w_p = rng.uniform(-1.0, 1.0, size=(hyper.k_w, d_eff))
    bound = 1.0 / np.sqrt(hyper.k_w)
    v = rng.uniform(-bound, bound, size=(hyper.k_w, hyper.k_v))
    sizes = hyper.layer_sizes()
    layers = []
    for i in range(hyper.l):
        fan_in = sizes[i]
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(sizes[i + 1], fan_in))
        b = np.zeros(sizes[i + 1])
        activation = "squash" if i == hyper.l - 1 else "relu"
        layers.append(FcLayer(w=w, b=b, activation=activation))
    return NetworkParams(d=d, w_p=w_p, v=v, layers=layers, hyper=hyper)


def save_checkpoint(params: NetworkParams, path) -> None:
    """Versioned binary: header (magic, version, d, k_w, k_v, r, l, layer
    sizes, flags) then w_p, v and each (w, b) as row-major float64 LE."""
    hyper = params.hyper
    sizes = hyper.layer_sizes()
    flags = 1 if hyper.first_order else 0
    with open(str(path), "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack(
            "<IIIIII", CHECKPOINT_VERSION, params.d, hyper.k_w, hyper.k_v,
            hyper.r, hyper.l,
        ))
        fh.write(struct.pack(f"<{len(sizes)}I", *sizes))
        fh.write(struct.pack("<I", flags))
        for _, arr in params.arrays():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path, hyper: Hyperparams | None = None) -> NetworkParams:
    """Rebuild parameters from a checkpoint file.

    Structural fields come from the header; loss/lifecycle hyperparameters
    (alpha, lambda_, beta, n_u, top_n) are taken from the supplied hyper when
    given (its structural fields must agree) and default otherwise.
    """
    with open(str(path), "rb") as fh:
        if fh.read(4) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        version, d, k_w, k_v, r, l = struct.unpack("<IIIIII", fh.read(24))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        sizes = list(struct.unpack(f"<{l + 1}I", fh.read(4 * (l + 1))))
        (flags,) = struct.unpack("<I", fh.read(4))
        first_order = bool(flags & 1)
        hidden = sizes[1] if l > 1 else k_v
        if hyper is None:
            hyper = Hyperparams(k_w=k_w, k_v=k_v, r=r, l=l, hidden=hidden,
                                first_order=first_order)
        else:
            if (hyper.k_w, hyper.k_v, hyper.r, hyper.l, hyper.first_order) != (
                    k_w, k_v, r, l, first_order) or hyper.layer_sizes() != sizes:
                raise ValueError(f"{path}: checkpoint structure disagrees with config")

        def read_array(shape):
            count = int(np.prod(shape))
            data = np.frombuffer(fh.read(8 * count), dtype="<f8", count=count)
            return data.reshape(shape).astype(np.float64)

        d_eff = d + 1 if first_order else d
        w_p = read_array((k_w, d_eff))
        v = read_array((k_w, k_v))
        layers = []
        for i in range(l):
            w = read_array((sizes[i + 1], sizes[i]))
            b = read_array((sizes[i + 1],))
            layers.append(FcLayer(w=w, b=b,
                                  activation="squash" if i == l - 1 else "relu"))
    return NetworkParams(d=d, w_p=w_p, v=v, layers=layers, hyper=hyper)
