"""The learned hash function: sparse case -> r-bit binary code.

Pipeline: per-feature position embedding (value times a learned slot vector),
second-order multiview interaction over all active-feature pairs, a stack of
fully-connected layers, and elementwise sign binarization. The interaction is
computed with the sum-of-squares identity

    z_k = 1/2 * sum_m [ (sum_p e_mp)^2 - sum_p e_mp^2 ] * v_mk

which touches only nonzero features, so the cost is O(d_n * k_w * k_v) for a
case with d_n active features.

There is one head: interaction() turns the running sums S1 and S2 into z,
and fc_stack() runs the FC layers, yielding each layer's (pre-activation,
output) so training can keep them for its backward pass while coding keeps
only the last (relaxed_output). Only the step that makes S1 and S2 differs:
a block of cases takes it from a CSR matrix (block_sums), a single case
gathers its active columns (case_sums). Codes are packed by one
np.packbits body (pack_rows) into a uint64 (n, ceil(r/64)) array, the form
code_batch returns and the index stores, and unpacked by unpack_words.

forward_rows runs the head on the rows of an (n, d) CSR matrix, a block of
rows at a time, each block writing its own slice of a preallocated (n, r)
output; forward_batch and code_batch first convert their cases to that
matrix, and code_rows lets an index code the matrix it already holds. The
constant slot of first_order is added to the running sums after the
product, as the last term a trailing ones column would add, so the matrix
needs no extra column. Beyond the CSR matrix and the output a block holds
only its own intermediates, whatever n is.

The blocks are independent and their heavy steps (scipy's CSR product, the
numpy elementwise ops, the BLAS GEMMs) release the GIL. When BLAS is pinned
to one thread, code_workers() is the number of cores the process may use,
and the calling thread and the threads of a process-wide pool share the
blocks, one thread per core, in blocks of CODE_BLOCK_ROWS // workers rows,
so the rows in flight stay CODE_BLOCK_ROWS. Otherwise, and for a single
block, the calling thread runs them one after another, CODE_BLOCK_ROWS rows
at a time. A row's arithmetic does not depend on the rows blocked with it,
so outputs and codes are bit-identical on either path. The pool is made on
first use, and a forked child makes its own.

forward_rows, forward_batch and hash_case are pure reads of the parameters
and safe to run concurrently; training mutates parameters under exclusive
access.
"""

from __future__ import annotations

import contextvars
import math
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from . import sparse
from .sparse import DataFormatError, SparseCase

CHECKPOINT_MAGIC = b"CHNV"
CHECKPOINT_VERSION = 1

_WORD_BITS = 64

# Rows forward_rows has in flight: one block of this many rows when serial,
# one block of CODE_BLOCK_ROWS // workers rows per thread when parallel, so
# the threads hold no more block intermediates than the serial path. A
# 128-wide float64 intermediate of 4096 rows is 4 MB. On a 2-core Xeon (2 MB
# L2 per core), serial blocks of 1024-4096 rows ran alike, 8192 rows and the
# whole batch at once ran slower. With BLAS on one thread, two threads coded
# the 100k-case latency fixture's CSR matrix in 0.29-0.31 s at 512- to
# 4096-row blocks, against about 0.55 s serial.
CODE_BLOCK_ROWS = 4096


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

    def code_batch(self, cases) -> np.ndarray:
        return self.code_rows(sparse.cases_to_csr(cases, self.d))

    def code_rows(self, x) -> np.ndarray:
        """Packed codes of the rows of an (n, d) CSR feature matrix."""
        return pack_rows(forward_rows(x, self))


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
        row = np.asarray(values).reshape(1, -1)
        return HashCode(r=row.shape[1], words=tuple(pack_rows(row)[0].tolist()))

    def to_signs(self) -> np.ndarray:
        bits = unpack_words([self.words], self.r)[0]
        return bits.astype(np.int8) * 2 - 1

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


def case_sums(case: SparseCase, params: NetworkParams):
    """Running sums S1 = sum_j e_j and S2 = sum_j e_j^2 of one case's
    embeddings e_j = x_j * w_p[:, j], shape (k_w,) each.

    The one-row form of block_sums: it gathers the active columns of w_p
    (plus the constant slot when first_order is set) instead of building a
    CSR matrix, which costs several times the whole network on one case.
    Zero-valued features are never stored, so they add nothing.
    """
    feats = case.features
    if feats.dim != params.d:
        raise DataFormatError(f"case dim {feats.dim} != network dim {params.d}")
    idx = np.fromiter(feats.indices, dtype=np.int64, count=feats.nnz)
    val = np.fromiter(feats.values, dtype=np.float64, count=feats.nnz)
    if params.hyper.first_order:
        idx = np.append(idx, params.d)
        val = np.append(val, 1.0)
    emb = params.w_p[:, idx] * val
    return emb.sum(axis=1), np.square(emb).sum(axis=1)


def block_sums(x, x_sq, w_p_t: np.ndarray, w_p_sq_t: np.ndarray):
    """S1 = x w_p^T and S2 = x_sq (w_p^2)^T for a CSR block x of cases and
    its elementwise square, given w_p^T and (w_p^2)^T with one row per
    column of x. For first_order, training appends a ones column to x;
    forward_rows adds that slot's row after the product instead. scipy
    copies a non-contiguous operand on every product, so a caller with
    many blocks passes contiguous ones."""
    return x @ w_p_t, x_sq @ w_p_sq_t


def interaction(s1, s2, v: np.ndarray) -> np.ndarray:
    """Sum of pairwise embedding interactions per view, in linear time.

    From the running sums of case_sums or block_sums (one row per case),
    sum_{p<q} <e_p, e_q * v_k> = 1/2 sum_m [(sum_p e_mp)^2 - sum_p e_mp^2] v_mk.
    """
    return 0.5 * ((np.square(s1) - s2) @ v)


def fc_stack(z: np.ndarray, params: NetworkParams):
    """Yield each FC layer's (pre-activation, output) in turn, from the
    interaction output z.

    Hidden layers use a rectifier; the last layer uses the squashing
    activation, so its output lies componentwise in (-1, 1). Raises
    DivergenceError after the last layer if its output is not finite.
    """
    h = z
    for layer in params.layers:
        pre = h @ layer.w.T
        pre += layer.b
        h = relu(pre) if layer.activation == "relu" else squash(pre)
        yield pre, h
    if not np.all(np.isfinite(h)):
        raise DivergenceError("non-finite network output")


def relaxed_output(z: np.ndarray, params: NetworkParams) -> np.ndarray:
    """The last layer's output for interaction output z; each layer's
    output is dropped once the next layer has used it."""
    for _, out in fc_stack(z, params):
        pass
    return out


def code_workers() -> int:
    """Threads forward_rows spreads its blocks over: every core this process
    may run on when BLAS is pinned to one thread, else 1.

    OpenBLAS reads OPENBLAS_NUM_THREADS and MKL reads MKL_NUM_THREADS, each
    falling back on OMP_NUM_THREADS, so BLAS counts as pinned when both
    resolve to 1. A BLAS left to its own thread count already spreads each
    GEMM over the cores; a pool on top of a 2-thread OpenBLAS coded 100k
    cases 1.1-1.2x slower than one thread did.
    """
    omp = os.environ.get("OMP_NUM_THREADS")
    if any(os.environ.get(var, omp) != "1"
           for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _block_pool(threads: int) -> ThreadPoolExecutor:
    """The process-wide pool, made with the given thread count on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=threads,
                                       thread_name_prefix="casehash-code")
        return _pool


def _forget_pool() -> None:
    """A forked child has none of its parent's threads, so it starts over."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def forward_rows(x, params: NetworkParams) -> np.ndarray:
    """Relaxed outputs for the rows of an (n, d) CSR matrix, shape (n, r),
    computed a block of rows at a time on code_workers() threads: the
    caller's and, past the first, the pool's."""
    d = params.d
    if x.shape[1] != d:
        raise DataFormatError(f"feature matrix has {x.shape[1]} columns, network dim is {d}")
    w_p_t = np.ascontiguousarray(params.w_p.T)
    w_p_sq_t = np.square(w_p_t)
    out = np.empty((x.shape[0], params.r))

    def run_block(start: int) -> None:
        block = x[start:start + rows]
        s1, s2 = block_sums(block, block.multiply(block), w_p_t[:d], w_p_sq_t[:d])
        if params.hyper.first_order:
            s1 += w_p_t[d]
            s2 += w_p_sq_t[d]
        out[start:start + block.shape[0]] = relaxed_output(
            interaction(s1, s2, params.v), params)

    def run_blocks(block_starts) -> None:
        for start in block_starts:
            run_block(start)

    workers = code_workers()
    rows = max(CODE_BLOCK_ROWS // workers, 1)
    starts = range(0, x.shape[0], rows)
    if workers == 1 or len(starts) == 1:
        run_blocks(starts)
        return out
    # the caller takes every workers-th block itself, so the pool needs one
    # thread fewer (each thread costs resident memory for its own malloc
    # arena and BLAS buffers); pool threads run in a copy of the caller's
    # context, so np.errstate holds there too
    pool = _block_pool(workers - 1)
    futures = [pool.submit(contextvars.copy_context().run, run_blocks, starts[k::workers])
               for k in range(1, workers)]
    try:
        run_blocks(starts[::workers])
    finally:
        wait(futures)  # no thread writes to out once this returns
    for future in futures:
        future.result()  # re-raises a block's DivergenceError
    return out


def forward_batch(cases, params: NetworkParams) -> np.ndarray:
    """Relaxed outputs for many cases at once, shape (n, r), from one CSR
    matrix of their features."""
    return forward_rows(sparse.cases_to_csr(cases, params.d), params)


def hash_case(case: SparseCase, params: NetworkParams) -> HashCode:
    """Binarize the network output: bit m is -1 iff output m < 0, else +1."""
    return HashCode.from_signs(
        relaxed_output(interaction(*case_sums(case, params), params.v), params))


def unpack_words(words, r: int) -> np.ndarray:
    """The (n, r) 0/1 bits of (n, words) packed codes; inverse of pack_rows."""
    words = np.ascontiguousarray(words, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), axis=1, count=r, bitorder="little")


def pack_rows(outputs: np.ndarray) -> np.ndarray:
    """Binarize a (n, r) output block into packed codes, uint64
    (n, ceil(r/64)): bit m of a row is set iff its component m is >= 0, so
    sign(0) = +1 and NaN packs as -1."""
    n, r = outputs.shape
    words = np.zeros((n, -(-r // _WORD_BITS)), dtype="<u8")
    words.view(np.uint8)[:, :-(-r // 8)] = np.packbits(outputs >= 0, axis=1,
                                                       bitorder="little")
    return words


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
    given and default otherwise. A file that is not a whole checkpoint of
    this version raises DataFormatError; a supplied hyper whose structural
    fields disagree with the file raises ValueError.
    """
    with open(str(path), "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n_bytes: int) -> bytes:
            if n_bytes > size - fh.tell():
                raise DataFormatError(f"{path}: truncated checkpoint file")
            return fh.read(n_bytes)

        if fh.read(4) != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: not a checkpoint file")
        version, d, k_w, k_v, r, l = struct.unpack("<IIIIII", read(24))
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(f"{path}: unsupported checkpoint version {version}")
        sizes = list(struct.unpack(f"<{l + 1}I", read(4 * (l + 1))))
        (flags,) = struct.unpack("<I", read(4))
        first_order = bool(flags & 1)
        try:
            stored = Hyperparams(k_w=k_w, k_v=k_v, r=r, l=l,
                                 hidden=sizes[1] if l > 1 else k_v,
                                 first_order=first_order)
        except ValueError as err:
            raise DataFormatError(f"{path}: corrupt checkpoint header: {err}") from None
        if d < 1 or stored.layer_sizes() != sizes:
            raise DataFormatError(f"{path}: corrupt checkpoint header")
        if hyper is None:
            hyper = stored
        elif (hyper.k_w, hyper.first_order, hyper.layer_sizes()) != (k_w, first_order, sizes):
            raise ValueError(f"{path}: checkpoint structure disagrees with config")

        def read_array(shape):
            count = math.prod(shape)
            data = np.frombuffer(read(8 * count), dtype="<f8", count=count)
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
