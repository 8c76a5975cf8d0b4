"""Case-based reasoning engine over the hash index.

solve() runs the full cycle for one query: retrieve nearest stored cases,
reuse their labels by weighted majority vote, revise against the true label
when it is revealed, and retain the solved case. The ids of retained cases
accumulate in a buffer; every update_interval retentions the hash network is
refreshed on buffer x buffer and buffer x reservoir pairs, rows the index
gathers in one call, under the hinge-gated retention loss, after which every
stored code is recomputed and the buckets rebuilt. A retention round whose
loss is exactly zero leaves the parameters and codes bitwise unchanged; one
that diverges puts the parameters back. Each update's loss, pair count,
steps, recode time and code churn are kept as UpdateStats on the engine and
on the SolveRecord of the solve that triggered it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .index import HashIndex, RetrievalResult
from .network import DivergenceError, HashCode, NetworkParams
from .sparse import SparseCase
from .training import OptimizerState, PairBatch, adaptive_objective_and_grad, all_finite

VOTE_TIEBREAK = 1e-9


@dataclass
class Suggestion:
    """Reuse outcome for one query: the voted label plus per-label evidence.

    scores hold vote fraction + a distance tiebreak small enough to never
    reorder distinct vote counts; label is None when retrieval came up empty.
    code is the query's hash code, which solve() reuses to retain it.
    """

    query_id: int
    label: int | None
    votes: dict = field(default_factory=dict)
    scores: dict = field(default_factory=dict)
    retrieval: RetrievalResult | None = None
    code: HashCode | None = None
    hash_us: float = 0.0
    retrieve_us: float = 0.0
    reuse_us: float = 0.0


@dataclass
class UpdateStats:
    """One model update: the last retention loss evaluated, the pair count,
    the optimizer steps taken, the wall time of the recode (0 when no step
    was taken) and the code churn, the fraction of stored codes it changed."""

    loss: float = 0.0
    pairs: int = 0
    steps: int = 0
    recode_us: float = 0.0
    churn: float = 0.0


@dataclass
class SolveRecord:
    suggestion: Suggestion
    true_label: int | None = None
    correct: bool | None = None
    retained: bool = False
    updated: bool = False
    retain_us: float = 0.0
    update_us: float = 0.0
    update: UpdateStats | None = None  # set when updated

    @property
    def total_us(self) -> float:
        s = self.suggestion
        return s.hash_us + s.retrieve_us + s.reuse_us + self.retain_us + self.update_us


class CbrEngine:
    """Stateful solve loop binding a coder (learned network or LSH) to an index."""

    def __init__(self, index: HashIndex, coder, top_n: int = 10, max_radius: int = 2,
                 update_interval: int | None = None, update_epochs: int = 5,
                 update_lr: float = 1e-3, no_update: bool = False, seed: int = 0):
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        if max_radius < 0:
            raise ValueError("max_radius must be >= 0")
        self.index = index
        self.coder = coder
        self.top_n = top_n
        self.max_radius = max_radius
        self.trainable = isinstance(coder, NetworkParams)
        if update_interval is None:
            update_interval = coder.hyper.n_u if self.trainable else 100
        if update_interval < 1:
            raise ValueError("update_interval must be >= 1")
        self.update_interval = update_interval
        self.update_epochs = update_epochs
        self.update_lr = update_lr
        self.no_update = no_update
        self.buffer: list[int] = []  # ids retained since the last round
        self.n_updates = 0
        self.last_update: UpdateStats | None = None
        self._rng = np.random.default_rng(seed)

    # retrieval / reuse

    def suggest(self, query: SparseCase) -> Suggestion:
        """Retrieve neighbors and vote a label.

        Ranking of candidate labels: most votes first, then smaller summed
        rerank distance, then smaller label id. The float scores reproduce
        that order for vote ties via a bounded distance bonus.
        """
        t0 = time.perf_counter_ns()
        code = self.coder.code(query)
        hash_us = (time.perf_counter_ns() - t0) / 1e3

        result = self.index.retrieve(query, code, self.top_n,
                                     max_radius=self.max_radius)
        retrieve_us = result.gather_us + result.rerank_us

        t1 = time.perf_counter_ns()
        votes: dict[int, int] = {}
        dist_sum: dict[int, float] = {}
        for lab, dist in zip(self.index.labels(result.ids).tolist(), result.distances.tolist()):
            votes[lab] = votes.get(lab, 0) + 1
            dist_sum[lab] = dist_sum.get(lab, 0.0) + dist
        if votes:
            ranked = sorted(votes, key=lambda l: (-votes[l], dist_sum[l], l))
            label = ranked[0]
            n_ret = len(result.ids)
            scores = {l: votes[l] / n_ret
                      + VOTE_TIEBREAK / (1.0 + dist_sum[l] / votes[l])
                      for l in votes}
        else:
            label, scores = None, {}
        reuse_us = (time.perf_counter_ns() - t1) / 1e3
        return Suggestion(query_id=query.id, label=label, votes=votes, scores=scores,
                          retrieval=result, code=code, hash_us=hash_us,
                          retrieve_us=retrieve_us, reuse_us=reuse_us)

    @staticmethod
    def revise(suggestion: Suggestion, true_label: int) -> bool:
        """Compare the suggestion against the revealed label."""
        return suggestion.label == true_label

    # retention

    def retain(self, case: SparseCase, code: HashCode | None = None) -> tuple[bool, bool]:
        """Insert a solved case and maybe refresh the model.

        code, when given, must be the coder's current code for the case; it
        saves hashing the case again. Returns (retained, updated). A
        no_update engine retains nothing and never updates, preserving its
        initial case base and codes. A case whose id is already stored is
        not retained either: the index and the buffer stay as they are.
        """
        if self.no_update or case.id in self.index:
            return False, False
        self.index.insert(case, self.coder.code(case) if code is None else code)
        self.buffer.append(case.id)
        updated = False
        if len(self.buffer) >= self.update_interval and self.trainable:
            self.update_model()
            updated = True
        elif len(self.buffer) >= self.update_interval:
            self.buffer.clear()  # nothing trainable; just drop the buffer
        return True, updated

    def update_model(self) -> float:
        """Adapt the network to the buffered cases, then recode the index.

        Pairs: every unordered buffer pair plus each buffer case against a
        reservoir sample of the other stored cases, all rows of one feature
        matrix read from the index; a buffered id no longer stored is left
        out. Runs update_epochs full-batch steps of the retention loss;
        steps with exactly zero loss apply no parameter change, so a fully
        satisfied margin is a no-op. Every round counts in n_updates, one
        that forms no pair too. Returns the last loss evaluated;
        last_update holds the round's UpdateStats. A non-finite loss,
        gradient or code raises DivergenceError with the parameters put
        back as they were before the round.
        """
        if not self.trainable:
            raise RuntimeError("coder has no trainable parameters")
        if not self.buffer:
            return 0.0
        stored = np.array(self.index.ids(), dtype=np.int64)
        buffered = np.array(self.buffer, dtype=np.int64)
        buffered = buffered[np.isin(buffered, stored)]
        others = stored[~np.isin(stored, buffered)]
        if len(others):  # the reservoir: a sample of them, in id order
            k = min(self.update_interval, len(others))
            others = others[np.sort(self._rng.choice(len(others), size=k, replace=False))]
        ids = np.concatenate((buffered, others))
        i, j = np.triu_indices(len(buffered), k=1, m=len(ids))
        self.buffer.clear()
        self.n_updates += 1
        self.last_update = stats = UpdateStats(pairs=len(i))
        if not len(i):
            return 0.0
        x, labels = self.index.rows(ids)
        batch = PairBatch(x=x, i=i, j=j, s=labels[i] == labels[j])

        before = self.coder.copy()
        opt = OptimizerState(kind="adam", lr=self.update_lr)
        try:
            for _ in range(self.update_epochs):
                stats.loss, grads = adaptive_objective_and_grad(batch, self.coder)
                if stats.loss == 0.0:
                    break
                if not (np.isfinite(stats.loss) and all_finite(grads)):
                    raise DivergenceError("non-finite retention loss or gradient")
                opt.apply(self.coder, grads)
                stats.steps += 1
            if stats.steps:
                t0 = time.perf_counter_ns()
                changed = self.index.replace_codes(self.coder)
                stats.recode_us = (time.perf_counter_ns() - t0) / 1e3
                stats.churn = changed / len(self.index)
        except DivergenceError:
            for (_, now), (_, was) in zip(self.coder.arrays(), before.arrays()):
                now[...] = was
            raise
        return stats.loss

    # full cycle

    def solve(self, query: SparseCase, true_label: int | None = None) -> SolveRecord:
        """Suggest a label; when the truth is revealed, revise and retain.

        The case is retained under the suggestion's code, so it is hashed
        once. A query whose id is already stored is solved but not retained
        (retained=False), and the index and the buffer stay as they are.
        """
        suggestion = self.suggest(query)
        record = SolveRecord(suggestion=suggestion)
        if true_label is None:
            return record
        record.true_label = true_label
        record.correct = self.revise(suggestion, true_label)
        solved = (query if query.label == true_label
                  else SparseCase(id=query.id, features=query.features,
                                  label=true_label))
        t0 = time.perf_counter_ns()
        retained, updated = self.retain(solved, suggestion.code)
        elapsed_us = (time.perf_counter_ns() - t0) / 1e3
        record.retained = retained
        record.updated = updated
        if updated:
            record.update_us = elapsed_us
            record.update = self.last_update
        else:
            record.retain_us = elapsed_us
        return record
