"""The casehash benchmark workloads: train-mixed, query-100k and stream-20k.

Every workload runs the whole life of a case base on inputs made from its
seed: set-up, training, index build/save/load, held-out queries through a
read-only engine and solves with retention. One client in one process issues
each call only after the previous one returned.

After set-up a workload interleaves its kinds of work ("tasks") one step at a
time, a step being one call or a few: the next step always goes to the task
that is furthest below its share of the time spent so far. The samples of
every metric are thus spread evenly over the whole run, rather than bunched
in one stretch of it, so that a slow stretch of a shared host weighs on every
metric as much as on the others and on every run alike. The workloads differ
in the shares, that is in where the time goes; see README.md.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import casehash as ch
from checks import (OracleStore, average_precision, check_codes, check_floor,
                    check_retrieval, check_roundtrip, check_stream_counts,
                    check_training, check_vote, euclidean, need, oracle_outputs,
                    pack_signs, words_of)
from tracing import layer_metrics

TOP_N = 10
MAX_RADIUS = 2
# Solve latencies are reported at this percentile besides the median: it
# keeps at least ten samples beyond it from 200 solves on.
SOLVE_TAIL_PCT = 95
# C08's fixture and coder seeds. Query cost follows the candidate count,
# which follows the learned code, so one corpus and one coder serve every
# seed; the seed draws which held-out cases are queried and streamed.
CLUSTERED = dict(n_classes=25, flip=0.08, seed=3)
CLUSTERED_POOL = 5000  # held-out cases after the corpus
CODER_SEED = 5


@dataclass
class Run:
    """Timing samples, operation counts and checks of one benchmark run."""

    name: str
    seed: int
    seconds: float
    tracer: object
    out_dir: object
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    started: float = field(default_factory=time.perf_counter)

    def note(self, what: str) -> None:
        """Progress on stderr, with the seconds since the run started."""
        print(f"[{time.perf_counter() - self.started:7.1f} s] {what}", file=sys.stderr)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def timed(self, metric: str, fn, *args, **kwargs):
        """Call fn once as one operation, adding its wall time to metric."""
        self.attempted += 1
        with self.tracer.span(metric):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.add(metric, time.perf_counter() - t0)
        return result

    def attempt(self, fn, *args):
        """One query or solve: (result or None, wall seconds); failures counted."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # the loop keeps going; the failure is counted
            self.failed += 1
            if self.failed == 1:
                traceback.print_exc(file=sys.stderr)
            return None, time.perf_counter() - t0
        return result, time.perf_counter() - t0


# scheduling


class Task:
    """One kind of work, done a step at a time: each next() of steps is one step.

    share is the task's part of the run's time; least is the number of steps
    it makes even when the time is up.
    """

    def __init__(self, name: str, share: float, steps, least: int = 0):
        self.name = name
        self.share = share
        self.steps = steps
        self.least = least
        self.spent = 0.0
        self.done = 0


def interleave(run: Run, tasks: list, until: float) -> None:
    """Step the tasks, always the one furthest below its share of the time
    spent, until the clock passes `until` and every task has made its least
    steps. Closes every task's steps when it ends, on every path out."""
    next_note = time.perf_counter() + 5.0
    try:
        while True:
            now = time.perf_counter()
            if now >= next_note:
                run.note(" ".join(f"{t.name}={t.done}" for t in tasks))
                next_note = now + 5.0
            live = [t for t in tasks if now < until or t.done < t.least]
            if not live:
                break
            task = min(live, key=lambda t: t.spent / t.share)
            t0 = time.perf_counter()
            next(task.steps)
            task.spent += time.perf_counter() - t0
            task.done += 1
    finally:
        for t in tasks:
            t.steps.close()
    run.note("steps: " + " ".join(f"{t.name}={t.done}" for t in tasks))


def repeat(fn):
    """Endless steps, each one call of fn()."""
    while True:
        fn()
        yield


# tasks


def timed_setup(run: Run, make):
    """make() as one set-up sample."""
    t0 = time.perf_counter()
    inputs = make()
    run.add("setup_s", time.perf_counter() - t0)
    return inputs


def train_coder(run: Run, cases, hyper, epochs: int, seed: int):
    """train() with early stopping off; adds train_s and checks the history."""
    with run.tracer.span("training.train"):
        t0 = time.perf_counter()
        res = ch.train(cases, hyper, epochs=epochs, seed=seed, patience=epochs)
        run.add("train_s", time.perf_counter() - t0)
    run.attempted += 1
    check_training(res.history, epochs, res.stopped_early, res.diverged)
    return res


def trainer(run: Run, cases, hyper, epochs: int, seed: int, first=None):
    """Endless steps of one train() each; every rerun must give the first
    one's parameters bit for bit."""
    while True:
        params = train_coder(run, cases, hyper, epochs, seed).params
        if first is None:
            first = params
        need(all(np.array_equal(a, b) for (_, a), (_, b)
                 in zip(first.arrays(), params.arrays())),
             "train() reruns with one seed gave different parameters")
        yield


class Lifecycle:
    """Build, save and load the base over and over, one call per step.

    Each load replaces `index` and `engine`, the read-only engine over it
    that the queries use; both let go of the previous index before the load,
    so the process holds one loaded index at a time. `words` are the codes
    of the first build.
    """

    def __init__(self, run: Run, cases, coder):
        self.run = run
        self.cases = cases
        self.coder = coder
        self.index = self.engine = None
        self.words = None
        self.steps = self._steps()

    def _steps(self):
        run = self.run
        path = run.out_dir / f"{run.name}-{run.seed}-{os.getpid()}.idx"
        try:
            while True:
                built = run.timed("build_s", ch.HashIndex.build, self.cases, self.coder)
                if self.words is None:
                    self.words = words_of([built.code(c.id) for c in self.cases])
                yield
                run.timed("save_s", built.save, path)
                run.add("index_bytes", path.stat().st_size)
                del built
                yield
                self.index = self.engine = None
                self.index = run.timed("load_s", ch.HashIndex.load, path)
                self.engine = ch.CbrEngine(self.index, self.coder, top_n=TOP_N,
                                           max_radius=MAX_RADIUS, no_update=True)
                yield
        finally:
            path.unlink(missing_ok=True)

    def prime(self) -> None:
        """One build, save and load, so that the queries have an index."""
        for _ in range(3):
            next(self.steps)

    def check(self) -> None:
        check_roundtrip(self.index, self.cases, self.words)


class Queries:
    """code + retrieve + vote on the latest loaded index, one query per step,
    in passes over a fixed list of held-out cases.

    Every loaded index holds the same cases and codes, so every pass must
    give the first pass's answers; finish() checks the first pass against
    the oracles and scores it.
    """

    def __init__(self, run: Run, life: Lifecycle, queries):
        self.run = run
        self.life = life
        self.coder = life.coder
        self.queries = queries
        self.first: list = []
        self.steps = self._steps()

    def _steps(self):
        run, queries, first = self.run, self.queries, self.first
        k = 0
        while True:
            i = k % len(queries)
            sug, dt = run.attempt(self.life.engine.suggest, queries[i])
            if sug is not None:
                run.add("query_us", dt * 1e6)
            if k < len(queries):
                first.append(sug)
            elif sug is not None and first[i] is not None:
                need(sug.retrieval.ids == first[i].retrieval.ids
                     and sug.label == first[i].label,
                     f"query {queries[i].id}: a repeated query changed its answer")
            k += 1
            yield

    def finish(self) -> None:
        """Check the first pass against the oracles; add accuracy and MAP@10."""
        need(len(self.first) == len(self.queries), "the first query pass is incomplete")
        life, coder, queries = self.life, self.coder, self.queries
        store = OracleStore(life.cases, life.words)
        q_out = oracle_outputs(coder, queries)
        check_codes(q_out, words_of([coder.code(q) for q in queries]), "query codes")
        q_words = pack_signs(q_out)
        labels = {c.id: c.label for c in life.cases}
        by_label: dict = {}
        for cid, lab in labels.items():
            by_label.setdefault(lab, set()).add(cid)
        hits, aps = 0, []
        for k, (q, sug) in enumerate(zip(queries, self.first)):
            if sug is None:  # a failed query scores as a miss
                aps.append(0.0)
                continue
            # every tenth query also compares the whole candidate set
            cands = (life.index.candidates_within(coder.code(q), sug.retrieval.radius_used)
                     if k % 10 == 0 else None)
            check_retrieval(sug.retrieval, store, q, q_words[k], TOP_N, MAX_RADIUS, cands)
            ids = sug.retrieval.ids
            check_vote(sug.label, ids, labels,
                       euclidean(q, [store.cases[store.row_of[i]] for i in ids]),
                       f"query {q.id}")
            hits += sug.label == q.label
            aps.append(average_precision(ids, by_label.get(q.label, set()), TOP_N))
        self.run.add("accuracy", hits / len(aps))
        self.run.add("map_at_10", float(np.mean(aps)))


class Stream:
    """Solves with retention on one engine, one held-out case per step.

    After each model update the recoded index's codes, its cases and the
    parameters are kept; finish() checks them against the oracles, with the
    solve right after the update (or a probe when none followed), and checks
    the counts and every vote.
    """

    def __init__(self, run: Run, engine, stored, cases):
        self.run = run
        self.engine = engine
        self.cases = {c.id: c for c in stored}
        self.queue = list(cases)
        self.n_initial = len(engine.index)
        self.solved = []
        self.updates = []  # [ordered cases, their codes, params, (query, retrieval)]

    def solve(self) -> bool:
        """One solve; False when the cases ran out."""
        if not self.queue:
            return False
        q = self.queue.pop(0)
        rec, dt = self.run.attempt(self.engine.solve, q, q.label)
        if rec is None:
            return True
        if self.updates and self.updates[-1][3] is None:
            self.updates[-1][3] = (q, rec.suggestion.retrieval)
        self.cases[q.id] = q
        self.solved.append((q, rec))
        self.run.add("update_ms" if rec.updated else "solve_ms", dt * 1e3)
        if rec.updated:
            ordered = sorted(self.cases.values(), key=lambda c: c.id)
            words = words_of([self.engine.index.code(c.id) for c in ordered])
            self.updates.append([ordered, words, self.engine.coder.copy(), None])
        return True

    def finish(self) -> None:
        for ordered, words, params, after in self.updates:
            check_codes(oracle_outputs(params, ordered), words, "codes after an update")
            if after is None:  # the last solve updated: probe the engine as it is
                probe = self.queue[0] if self.queue else self.solved[0][0]
                after = (probe, self.engine.suggest(probe).retrieval)
            q, retrieval = after
            out = oracle_outputs(params, [q])
            check_codes(out, words_of([params.code(q)]), f"query {q.id} code")
            check_retrieval(retrieval, OracleStore(ordered, words), q, pack_signs(out)[0],
                            TOP_N, MAX_RADIUS, what=f"solve {q.id} after an update")
        n_solves = len(self.solved)
        check_stream_counts(len(self.engine.index), self.n_initial, n_solves,
                            self.engine.n_updates, self.engine.update_interval)
        labels = {cid: c.label for cid, c in self.cases.items()}
        correct = 0
        for q, rec in self.solved:
            ids = rec.suggestion.retrieval.ids
            check_vote(rec.suggestion.label, ids, labels,
                       euclidean(q, [self.cases[i] for i in ids]), f"solve {q.id}")
            correct += rec.correct
        self.run.add("stream_accuracy", correct / n_solves)


def streaming(run: Run, stored, cases, coder, interval: int, seed: int, streams: list):
    """Endless steps of one retaining solve each. Each stream runs on an
    index of its own, built from the stored cases (a build_s sample), and
    solves the cases in order; when they run out a new stream starts."""
    while True:
        index = run.timed("build_s", ch.HashIndex.build, stored, coder)
        engine = ch.CbrEngine(index, coder.copy(), top_n=TOP_N, max_radius=MAX_RADIUS,
                              update_interval=interval, seed=seed)
        streams.append(Stream(run, engine, stored, cases))
        while streams[-1].solve():
            yield


def code_sample(coder, index, cases, size: int) -> None:
    """Stored codes of an evenly spaced sample must match the oracle."""
    step = max(1, len(cases) // size)
    sample = cases[::step][:size]
    check_codes(oracle_outputs(coder, sample), words_of([index.code(c.id) for c in sample]),
                "stored codes")


def trace_index(index, queries, retrievals_in=None) -> dict:
    """Traced runs only: linear-scan reference times and bucket counts."""
    for q in queries:
        index.linear_scan(q, TOP_N)
    sizes = Counter(index.code(cid).words for cid in index.ids())
    return {"buckets": index.n_buckets, "largest_bucket": max(sizes.values()),
            "retrievals_in": retrievals_in}


def finish(run: Run, life: Lifecycle, queries: Queries, streams: list, floor: float,
           retrievals_in=None) -> dict:
    """The checks every workload shares, after its tasks have ended."""
    life.check()
    code_sample(life.coder, life.index, life.cases, 500)
    queries.finish()
    check_floor("held-out accuracy", run.samples["accuracy"][0], floor)
    run.note("index and queries checked")
    for stream in streams:
        stream.finish()
        check_floor("streamed accuracy", run.samples["stream_accuracy"][-1], floor)
    run.note("streams checked")
    if run.tracer.enabled:
        return trace_index(life.index, queries.queries[:50], retrievals_in)
    return {}


# workloads


def train_mixed(run: Run) -> dict:
    """train() on C06's mixed fixture, then evaluate() on the held-out 20%.

    Shares of the time: train() 50%, streams of retaining solves over the
    400 held-out cases on the 1600 training cases at n_u=100 27%,
    build/save/load of the training cases 10%, queries 10%, set-up 3%.
    """
    seed = run.seed
    epochs = 2  # C06 trains 50; its floors hold from 2 on

    def make():
        cases = ch.two_class_fixture(n=2000, seed=seed)
        return ch.split(cases, 0.8, seed=seed + 1)

    train_cases, test_cases = timed_setup(run, make)
    run.note("set up")
    started = time.perf_counter()
    hyper = ch.Hyperparams(r=16)
    params = train_coder(run, train_cases, hyper, epochs, seed + 2).params
    life = Lifecycle(run, train_cases, params)
    life.prime()
    queries = Queries(run, life, test_cases)
    streams: list = []
    interleave(run, [
        Task("setup", 0.03, repeat(lambda: timed_setup(run, make))),
        Task("train", 0.5, trainer(run, train_cases, hyper, epochs, seed + 2, params)),
        Task("index", 0.1, life.steps),
        Task("query", 0.1, queries.steps, least=len(test_cases)),
        Task("stream", 0.27, streaming(run, train_cases, test_cases, params, hyper.n_u,
                                       seed + 3, streams), least=2 * hyper.n_u),
    ], until=started + run.seconds)

    extra = finish(run, life, queries, streams, 0.75, None)
    check_floor("held-out accuracy", run.samples["accuracy"][0], 0.90)
    check_floor("MAP@10", run.samples["map_at_10"][0], 0.85)
    report = ch.evaluate(life.index, params, test_cases, top_n=TOP_N, max_radius=MAX_RADIUS)
    need(abs(report.accuracy - run.samples["accuracy"][0]) < 1e-12
         and abs(report.map_at_n - run.samples["map_at_10"][0]) < 1e-12,
         f"evaluate() reports accuracy {report.accuracy}, MAP@10 {report.map_at_n}; "
         f"recomputed {run.samples['accuracy'][0]}, {run.samples['map_at_10'][0]}")
    return extra


def _clustered_setup(run: Run, n_base: int):
    """C08's corpus plus a coder trained on its first 2k cases (r=24, 10 epochs).

    Set-up runs once: training the coder takes most of it. The seed
    permutes the held-out pool.
    """
    def make():
        everything = ch.clustered_fixture(n=n_base + CLUSTERED_POOL, **CLUSTERED)
        with run.tracer.span("setup.train"):
            res = ch.train(everything[:2000], ch.Hyperparams(r=24), epochs=10,
                           seed=CODER_SEED, patience=10)
        check_training(res.history, 10, res.stopped_early, res.diverged)
        return everything[:n_base], everything[n_base:], res.params

    base, pool, params = timed_setup(run, make)
    run.note("set up")
    order = np.random.default_rng(run.seed).permutation(len(pool))
    return base, [pool[k] for k in order], params


def _clustered(run: Run, n_base: int, shares: dict, interval: int, rounds: int,
               retrievals_in=None) -> dict:
    """The two clustered workloads: n_base stored cases, the held-out pool
    split into 1000 queries and a stream solved at n_u=interval, at least
    `rounds` updates' worth.

    Besides the index, query and stream tasks a short train() (the coder's
    recipe on the first 1000 cases, 2 epochs) runs now and then, for
    train_s; the coder itself is the set-up's.
    """
    base, pool, params = _clustered_setup(run, n_base)
    started = time.perf_counter()
    life = Lifecycle(run, base, params)
    life.prime()
    queries = Queries(run, life, pool[:1000])
    streams: list = []
    interleave(run, [
        Task("train", shares["train"],
             trainer(run, base[:1000], ch.Hyperparams(r=24), 2, CODER_SEED)),
        Task("index", shares["index"], life.steps),
        Task("query", shares["query"], queries.steps, least=1000),
        Task("stream", shares["stream"],
             streaming(run, base, pool[1000:], params, interval, run.seed, streams),
             least=rounds * interval),
    ], until=started + run.seconds)
    need(len(streams) == 1, "the stream ran out of cases")
    return finish(run, life, queries, streams, 0.5, retrievals_in)


def query_100k(run: Run) -> dict:
    """Build, save and load 100k cases; time held-out queries on the loaded index.

    Shares of the time: build/save/load 40%, retaining solves on an index of
    their own at n_u=10 30% (at least 2 updates), queries 20%, short
    train() 10%.
    """
    return _clustered(run, 100_000,
                      dict(train=0.1, index=0.4, query=0.2, stream=0.3), 10, 2)


def stream_20k(run: Run) -> dict:
    """Solve held-out cases with retention on 20k cases at the default n_u=100.

    Shares of the time: retaining solves 70% (at least 4 updates),
    build/save/load 10%, queries 10%, short train() 10%. The reported
    accuracy is the streamed one.
    """
    extra = _clustered(run, 20_000,
                       dict(train=0.1, index=0.1, query=0.1, stream=0.7), 100, 4,
                       "cbr.solve")
    run.samples["accuracy"] = run.samples["stream_accuracy"]
    return extra


WORKLOADS = {"train-mixed": train_mixed, "query-100k": query_100k,
             "stream-20k": stream_20k}


def _pct(values, pct) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), pct))


def end_to_end(run: Run) -> dict:
    """The end-to-end metrics as {name: (value, unit)} from the run's samples."""
    s = run.samples
    med = lambda name: float(statistics.median(s[name]))  # noqa: E731
    solve_s = (sum(s["solve_ms"]) + sum(s["update_ms"])) / 1e3
    return {
        "setup_s": (med("setup_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "accuracy": (med("accuracy"), "fraction"),
        "train_s": (med("train_s"), "s"),
        "map_at_10": (med("map_at_10"), "fraction"),
        "build_s": (med("build_s"), "s"),
        "save_s": (med("save_s"), "s"),
        "load_s": (med("load_s"), "s"),
        "index_bytes": (med("index_bytes"), "bytes"),
        "query_p50_us": (_pct(s["query_us"], 50), "us"),
        "query_p99_us": (_pct(s["query_us"], 99), "us"),
        "solves_per_s": ((len(s["solve_ms"]) + len(s["update_ms"])) / solve_s, "1/s"),
        "solve_p50_ms": (_pct(s["solve_ms"], 50), "ms"),
        "solve_tail_ms": (_pct(s["solve_ms"], SOLVE_TAIL_PCT), "ms"),
        "update_p50_ms": (med("update_ms"), "ms"),
    }


def run_workload(run: Run) -> tuple[dict, dict | None]:
    """Run the workload; returns the end-to-end metrics and, when traced,
    the per-layer ones, each as {name: (value, unit)}."""
    extra = WORKLOADS[run.name](run)
    layers = layer_metrics(run.tracer.spans, extra) if run.tracer.enabled else None
    return end_to_end(run), layers