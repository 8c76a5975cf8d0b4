"""Optimization of the hash network against pairwise similarity supervision.

The objective over a batch of supervised pairs is

    sum_pairs [ log(1 + e^(alpha * s_hat)) - alpha * s * s_hat ]
        - lambda * sum_cases ||z_out||^2

with s_hat the inner product of the two cases' relaxed outputs. Pairs index
rows of one CSR feature matrix, which train converts from its case list
once. A batch's distinct rows, sliced out as one block, run through
network.py's head (block_sums, interaction, fc_stack), keeping each FC
layer's (pre, out), and the gradients are closed-form matrix products over
that block (validated against central finite differences), returned as a
NetworkParams with the parameters' shapes, so the optimizer zips the two
arrays() streams. A hinge-gated variant of the loss
(adaptive_objective_and_grad) drives the retention-time model update: pairs
whose code similarity already clears the margin r*beta contribute nothing.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import expit

from . import sparse
from .network import (
    DivergenceError,
    FcLayer,
    Hyperparams,
    NetworkParams,
    block_sums,
    fc_stack,
    init_params,
    interaction,
    squash_grad_from_output,
)


@dataclass
class PairBatch:
    """Supervised (i, j, s) triples over the rows of a feature matrix.

    i/j index rows of x, a scipy CSR matrix; s holds 0/1 similarity labels.
    Pairs are unordered and unique, with i != j everywhere. `unbalanced`
    marks degenerate batches (single-label data) where balancing was impossible.
    """

    x: object
    i: np.ndarray
    j: np.ndarray
    s: np.ndarray
    unbalanced: bool = False

    def __post_init__(self):
        self.i = np.asarray(self.i, dtype=np.int64)
        self.j = np.asarray(self.j, dtype=np.int64)
        self.s = np.asarray(self.s, dtype=np.float64)
        if not (self.i.shape == self.j.shape == self.s.shape):
            raise ValueError("i, j, s must have equal length")
        if np.any(self.i == self.j):
            raise ValueError("self-pairs are not allowed")
        lo, hi = np.minimum(self.i, self.j), np.maximum(self.i, self.j)
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        if np.any((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])):
            raise ValueError("duplicate unordered pairs in batch")

    def __len__(self) -> int:
        return len(self.i)

    @property
    def n_positive(self) -> int:
        return int(self.s.sum())

    @property
    def n_negative(self) -> int:
        return len(self) - self.n_positive


def all_finite(params: NetworkParams) -> bool:
    """Whether every array of params (or of a gradient) is finite."""
    return all(np.all(np.isfinite(a)) for _, a in params.arrays())


def _adaptive_loss_and_dshat(s, s_hat, alpha, beta, r):
    """Vectorized adaptive loss values and their derivative in s_hat."""
    s = np.asarray(s, dtype=float)
    s_hat = np.asarray(s_hat, dtype=float)
    margin = r * beta
    sign = np.where(s == 1, -1.0, 1.0)       # s=1 uses -s_hat inside the softplus
    hinge = np.maximum(0.0, margin + sign * s_hat)
    soft = np.logaddexp(0.0, sign * alpha * s_hat)
    loss = hinge * soft
    dhinge = np.where(hinge > 0.0, sign, 0.0)
    dsoft = sign * alpha * expit(sign * alpha * s_hat)
    dshat = np.where(hinge > 0.0, dhinge * soft + hinge * dsoft, 0.0)
    return loss, dshat


def _forward_distinct(batch: PairBatch, params: NetworkParams):
    """Forward pass over the batch's distinct rows as one CSR block.

    Returns (positions, trace, z, local): trace holds what _backward needs
    (the block x, its square x_sq, the running sums s1 and s2, the
    interaction output and each FC layer's (pre, out)), z the relaxed
    codes, and local maps a row of batch.x to its row of z, so local[batch.i]
    gives each pair's first row.
    """
    positions = np.unique(np.concatenate([batch.i, batch.j]))
    x = batch.x[positions]
    x_sq = x.multiply(x)
    s1, s2 = block_sums(x, x_sq, params.w_p.T, (params.w_p ** 2).T)
    z_in = interaction(s1, s2, params.v)
    layers = list(fc_stack(z_in, params))
    local = np.zeros(batch.x.shape[0], dtype=np.int64)
    local[positions] = np.arange(len(positions))
    return positions, (x, x_sq, s1, s2, z_in, layers), layers[-1][1], local


def _pair_terms(batch: PairBatch, z: np.ndarray, local, alpha: float):
    li, lj = local[batch.i], local[batch.j]
    s_hat = (z[li] * z[lj]).sum(axis=1)
    losses = np.logaddexp(0.0, alpha * s_hat) - alpha * batch.s * s_hat
    return li, lj, s_hat, losses


def _pair_pull(li, lj, coeff, z: np.ndarray) -> np.ndarray:
    """Per row of z, the coefficient-weighted sum of its pair partners' rows,
    as (C + C^T) z with C[li, lj] = coeff (pairs are unique and unordered)."""
    pull = np.zeros((len(z), len(z)))
    pull[li, lj] = coeff
    return (pull + pull.T) @ z


def batch_objective(batch: PairBatch, params: NetworkParams) -> float:
    """Pair losses minus lambda times the summed squared output norms."""
    hyper = params.hyper
    _, _, z, local = _forward_distinct(batch, params)
    _, _, _, losses = _pair_terms(batch, z, local, hyper.alpha)
    return float(losses.sum() - hyper.lambda_ * np.square(z).sum())


def _backward(params: NetworkParams, trace, deltas: np.ndarray) -> NetworkParams:
    """Push dL/dz_out (one row per case) back through FC layers, views and
    embeddings, summed over the block, into a gradient laid out as params.

    With G = (dL/dz) v^T, a case's active feature j with value x_j gets
    dL/dw_p[:, j] = g * x_j * (s1 - x_j w_p[:, j]); summed over the block that
    is (G o S1)^T X - w_p o (G^T X_sq). The first_order slot, value 1 in
    every case, gets the column sum(G o S1) - w_p[:, d] * sum(G).
    """
    x, x_sq, s1, s2, z_in, fc = trace
    d_out = deltas
    layers, last = [], len(params.layers) - 1
    for li in reversed(range(len(params.layers))):
        pre, out = fc[li]
        if li == last:
            d_pre = d_out * squash_grad_from_output(out)
        else:
            d_pre = d_out * (pre > 0.0)
        h_in = fc[li - 1][1] if li > 0 else z_in
        layers.append(FcLayer(w=d_pre.T @ h_in, b=d_pre.sum(axis=0)))
        d_out = d_pre @ params.layers[li].w
    # d_out is now dL/dz, one row per case
    g = d_out @ params.v.T
    gs1, d = g * s1, params.d
    w_p = (x.T @ gs1).T - params.w_p[:, :d] * (x_sq.T @ g).T
    if params.hyper.first_order:
        w_p = np.column_stack((w_p, gs1.sum(axis=0) - params.w_p[:, d] * g.sum(axis=0)))
    return NetworkParams(d=d, w_p=w_p, v=0.5 * ((np.square(s1) - s2).T @ d_out),
                         layers=layers[::-1], hyper=params.hyper)


def _objective_and_grad(batch: PairBatch, params: NetworkParams):
    hyper = params.hyper
    _, trace, z, local = _forward_distinct(batch, params)
    li, lj, s_hat, losses = _pair_terms(batch, z, local, hyper.alpha)
    value = float(losses.sum() - hyper.lambda_ * np.square(z).sum())

    coeff = hyper.alpha * (expit(hyper.alpha * s_hat) - batch.s)
    deltas = _pair_pull(li, lj, coeff, z) - 2.0 * hyper.lambda_ * z
    return value, _backward(params, trace, deltas)


def grad(batch: PairBatch, params: NetworkParams) -> NetworkParams:
    """Exact analytic gradient of batch_objective for every parameter."""
    _, gradients = _objective_and_grad(batch, params)
    if not all_finite(gradients):
        raise DivergenceError("non-finite gradient")
    return gradients


def adaptive_objective_and_grad(batch: PairBatch, params: NetworkParams):
    """Summed adaptive loss and its gradient; margin-satisfied pairs are inert."""
    hyper = params.hyper
    _, trace, z, local = _forward_distinct(batch, params)
    li, lj = local[batch.i], local[batch.j]
    s_hat = (z[li] * z[lj]).sum(axis=1)
    losses, dshat = _adaptive_loss_and_dshat(batch.s, s_hat, hyper.alpha,
                                             hyper.beta, hyper.r)
    return float(losses.sum()), _backward(params, trace, _pair_pull(li, lj, dshat, z))


def sample_pairs(x, labels, batch_size: int, seed: int, neg_ratio: float = 1.0) -> PairBatch:
    """Label-stratified row draw, all within-draw pairs, negatives subsampled.

    Draws up to batch_size rows cycling through labels, one int64 per row of
    x, forms every unordered pair among them, then keeps all positives and
    about len(positives) * neg_ratio negatives. Single-label (or
    single-class-pair) draws are returned unbalanced with the flag set.
    """
    if len(labels) < 2:
        raise ValueError("need at least 2 cases to form pairs")
    if batch_size < 2:
        raise ValueError("batch_size must be >= 2")
    rng = np.random.default_rng(seed)

    by_label = np.argsort(labels, kind="stable")
    bounds = np.flatnonzero(np.diff(labels[by_label])) + 1
    pools = [rng.permutation(group) for group in np.split(by_label, bounds)]
    # the draw takes one case per label in turn, each from the end of its
    # pool: the case t places from the end goes in round t
    rounds = np.concatenate([np.arange(len(p))[::-1] for p in pools])
    turn = np.repeat(np.arange(len(pools)), [len(p) for p in pools])
    drawn = np.lexsort((turn, rounds))[:min(batch_size, len(labels))]
    chosen = np.sort(np.concatenate(pools)[drawn])

    a, b = np.triu_indices(len(chosen), k=1)
    p, q = chosen[a], chosen[b]
    same = labels[p] == labels[q]
    n_pos, n_neg = int(same.sum()), int((~same).sum())

    unbalanced = n_pos == 0 or n_neg == 0
    if unbalanced:
        if n_pos == 0 and n_neg == 0:
            raise ValueError("no pairs could be formed")
        warnings.warn("degenerate supervision: batch has a single pair polarity",
                      stacklevel=2)
        neg = ~same
    else:
        target = min(n_neg, int(round(n_pos * neg_ratio)))
        target = max(target, 1)
        keep = rng.choice(n_neg, size=target, replace=False)
        neg = np.zeros(len(same), dtype=bool)
        neg[np.flatnonzero(~same)[keep]] = True

    i = np.concatenate([p[same], p[neg]])
    j = np.concatenate([q[same], q[neg]])
    s = np.concatenate([np.ones(n_pos), np.zeros(int(neg.sum()))])
    return PairBatch(x=x, i=i, j=j, s=s, unbalanced=unbalanced)


@dataclass
class OptimizerState:
    """First-order optimizer: adaptive moments ("adam") or plain descent ("sgd")."""

    kind: str = "adam"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def apply(self, params: NetworkParams, grads: NetworkParams) -> None:
        """One in-place minimization step."""
        self.step += 1
        for (name, arr), (_, g) in zip(params.arrays(), grads.arrays()):
            if self.kind == "sgd":
                arr -= self.lr * g
                continue
            m = self.m.setdefault(name, np.zeros_like(arr))
            v = self.v.setdefault(name, np.zeros_like(arr))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            m_hat = m / (1.0 - self.beta1 ** self.step)
            v_hat = v / (1.0 - self.beta2 ** self.step)
            arr -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class EpochRecord:
    epoch: int
    objective: float
    val_objective: float
    n_positive: int
    n_negative: int
    wall_time_s: float


@dataclass
class TrainResult:
    params: NetworkParams
    history: list[EpochRecord]
    stopped_early: bool = False
    diverged: bool = False


def write_train_log(history, path) -> None:
    """Write the per-epoch records as JSON lines."""
    with open(str(path), "w", encoding="utf-8") as fh:
        for rec in history:
            fh.write(json.dumps(asdict(rec)) + "\n")


def train(
    train_set,
    hyper: Hyperparams,
    epochs: int = 50,
    seed: int = 0,
    batch_size: int = 256,
    optimizer: str = "adam",
    lr: float = 1e-3,
    neg_ratio: float = 1.0,
    patience: int = 5,
    min_delta: float = 1e-4,
) -> TrainResult:
    """Fit the hash network on a labeled case set.

    All randomness (initialization, per-step pair sampling, the fixed
    validation batch) derives from `seed`, so reruns are bit-identical.
    Stops early once the validation objective fails to improve by min_delta
    for `patience` consecutive epochs; on divergence the last finite
    parameters are returned.
    """
    if not train_set:
        raise ValueError("empty training set")
    labels = np.fromiter((c.label for c in train_set), dtype=np.int64, count=len(train_set))
    if len(np.unique(labels)) < 2:
        warnings.warn("training set has fewer than 2 labels; pairs will be degenerate",
                      stacklevel=2)

    root = np.random.SeedSequence(seed)
    init_seed, val_seed, sample_seed = (s.generate_state(1)[0] for s in root.spawn(3))
    d = train_set[0].features.dim
    params = init_params(hyper, d, int(init_seed))
    if epochs == 0:
        return TrainResult(params=params, history=[])

    x = sparse.cases_to_csr(train_set, d)
    opt = OptimizerState(kind=optimizer, lr=lr)
    val_batch = sample_pairs(x, labels, min(batch_size, len(train_set)),
                             int(val_seed), neg_ratio)
    steps_per_epoch = max(1, -(-len(train_set) // batch_size))
    sample_rng = np.random.default_rng(int(sample_seed))

    history: list[EpochRecord] = []
    best_val = np.inf
    stale = 0
    checkpoint = params.copy()
    for epoch in range(1, epochs + 1):
        started = time.perf_counter()
        totals = np.zeros(3)  # objective sum, positives, negatives
        try:
            for _ in range(steps_per_epoch):
                step_seed = int(sample_rng.integers(0, 2 ** 63 - 1))
                batch = sample_pairs(x, labels, min(batch_size, len(train_set)),
                                     step_seed, neg_ratio)
                value, gradients = _objective_and_grad(batch, params)
                if not np.isfinite(value) or not all_finite(gradients):
                    raise DivergenceError("objective diverged")
                opt.apply(params, gradients)
                totals += (value, batch.n_positive, batch.n_negative)
            val_value = batch_objective(val_batch, params)
            if not np.isfinite(val_value):
                raise DivergenceError("validation objective diverged")
        except DivergenceError:
            return TrainResult(params=checkpoint, history=history, diverged=True)

        checkpoint = params.copy()
        history.append(EpochRecord(
            epoch=epoch,
            objective=float(totals[0] / steps_per_epoch),
            val_objective=float(val_value),
            n_positive=int(totals[1]),
            n_negative=int(totals[2]),
            wall_time_s=time.perf_counter() - started,
        ))
        if val_value < best_val - min_delta:
            best_val = val_value
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                return TrainResult(params=params, history=history, stopped_early=True)
    return TrainResult(params=params, history=history)
