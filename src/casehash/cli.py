"""Command line front end.

Subcommands: train, eval, stream, bench, index, query. Configuration comes
from defaults, then an optional key=value --config file, then explicit
flags; the resolved configuration is echoed to stderr as `# key=value`
lines before any work starts. Exit codes: 0 success, 2 configuration or
usage error or an output that cannot be written, 3 malformed, missing or
unreadable input data, 4 training divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys
from dataclasses import dataclass, field, fields
from typing import get_type_hints

import numpy as np

from .baseline_lsh import LshPlanes
from .cbr import CbrEngine
from .eval import bench, evaluate
from .index import HashIndex
from .network import (
    DivergenceError,
    Hyperparams,
    load_checkpoint,
    save_checkpoint,
)
from .sparse import (
    DataFormatError,
    fit_ranges,
    kfold,
    load_csv,
    load_sparse_text,
    normalize,
    parse_schema_spec,
    split,
)
from .training import train, write_train_log


class ConfigError(Exception):
    """Unusable configuration: unknown key, bad value, missing required flag."""


@dataclass
class RunConfig:
    """Hyperparameters plus training and engine knobs, all overridable."""

    hyper: Hyperparams = field(default_factory=Hyperparams)
    epochs: int = 50
    batch_size: int = 256
    lr: float = 1e-3
    optimizer: str = "adam"
    patience: int = 5
    min_delta: float = 1e-4
    neg_ratio: float = 1.0
    max_radius: int = 2
    update_epochs: int = 5
    update_lr: float = 1e-3

    def __post_init__(self):
        for name in ("lr", "update_lr", "min_delta", "neg_ratio"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name, low in (("epochs", 0), ("batch_size", 2), ("patience", 1), ("max_radius", 0),
                          ("update_epochs", 0), ("min_delta", 0.0), ("neg_ratio", 0.0)):
            if not getattr(self, name) >= low:
                raise ValueError(f"{name} must be >= {low}")
        if not (self.lr > 0.0 and self.update_lr > 0.0):
            raise ValueError("lr and update_lr must be positive")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parsers(cls) -> dict:
    """Field name -> the parser of its config-file text, from the field's type."""
    types = get_type_hints(cls)
    return {f.name: _parse_bool if types[f.name] is bool else types[f.name]
            for f in fields(cls) if f.name != "hyper"}


def read_config_file(path) -> dict[str, str]:
    """Parse `key=value` lines; # starts a comment."""
    try:
        with open(str(path), "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value")
        key, value = (p.strip() for p in line.split("=", 1))
        out[key] = value
    return out


def build_config(args) -> RunConfig:
    """Defaults, then config file entries, then explicit flags."""
    hyper_kwargs: dict = {}
    run_kwargs: dict = {}
    if getattr(args, "config", None):
        hyper_parsers, run_parsers = _parsers(Hyperparams), _parsers(RunConfig)
        for key, raw in read_config_file(args.config).items():
            name = "lambda_" if key == "lambda" else key
            if name in hyper_parsers:
                target, parse = hyper_kwargs, hyper_parsers[name]
            elif name in run_parsers:
                target, parse = run_kwargs, run_parsers[name]
            else:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                target[name] = parse(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None

    if getattr(args, "bits", None) is not None:
        hyper_kwargs["r"] = args.bits
    if getattr(args, "top_n", None) is not None:
        hyper_kwargs["top_n"] = args.top_n
    if getattr(args, "radius", None) is not None:
        run_kwargs["max_radius"] = args.radius
    try:
        return RunConfig(hyper=Hyperparams(**hyper_kwargs), **run_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def echo_config(cfg: RunConfig, args) -> None:
    pairs = [("command", args.command), ("seed", args.seed),
             ("hash", getattr(args, "hash", "learned"))]
    pairs += [(f.name, getattr(cfg.hyper, f.name)) for f in fields(Hyperparams)]
    pairs += [(f.name, getattr(cfg, f.name)) for f in fields(RunConfig)
              if f.name != "hyper"]
    for key, value in pairs:
        print(f"# {key}={value}", file=sys.stderr)


def load_dataset(args, dim=None):
    """Cases plus (for CSV input) the fitted-vocabulary schema; a data file
    that cannot be read as UTF-8 text or holds no case raises
    DataFormatError. Sparse text is read at width dim when one is given;
    CSV keeps its schema's width."""
    if not getattr(args, "data", None):
        raise ConfigError("--data is required")
    spec = None
    if getattr(args, "schema", None):
        try:
            with open(args.schema, "r", encoding="utf-8") as fh:
                spec = parse_schema_spec(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read schema file: {exc}") from None
    try:
        if spec is None:
            cases, schema = load_sparse_text(args.data, dim), None
        else:
            cases, schema = load_csv(args.data, spec)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"cannot read data file {args.data}: {exc}") from None
    if not cases:
        raise DataFormatError(f"{args.data}: no cases")
    return cases, schema


def _normalized(schema, fit_on, *case_lists):
    """Fit numeric ranges on fit_on, then normalize every list; no-op without schema."""
    if schema is None:
        return case_lists if len(case_lists) > 1 else case_lists[0]
    fit_ranges(schema, fit_on)
    out = tuple(normalize(cl, schema) for cl in case_lists)
    return out if len(out) > 1 else out[0]


def _train(cases, cfg: RunConfig, seed: int):
    return train(cases, cfg.hyper, epochs=cfg.epochs, seed=seed,
                 batch_size=cfg.batch_size, optimizer=cfg.optimizer,
                 lr=cfg.lr, neg_ratio=cfg.neg_ratio, patience=cfg.patience,
                 min_delta=cfg.min_delta)


def _coder(args, cfg: RunConfig, cases, seed=None):
    """The code provider: LSH planes sampled at the cases' width, the --model
    checkpoint, or, given a seed, a network trained on cases, whose
    divergence raises DivergenceError."""
    if args.hash == "lsh":
        return LshPlanes.sample(cfg.hyper.r, cases[0].features.dim, args.seed)
    if args.model:
        try:
            return load_checkpoint(args.model, cfg.hyper)
        except OSError as exc:
            raise ConfigError(f"cannot read model file: {exc}") from None
        except DataFormatError:
            raise
        except ValueError as exc:  # the file's structure disagrees with cfg
            raise ConfigError(str(exc)) from None
    if seed is None:
        raise ConfigError(f"{args.command} requires --model or --hash lsh")
    result = _train(cases, cfg, seed)
    if result.diverged:
        raise DivergenceError("training diverged")
    return result.params


def cmd_train(args, cfg: RunConfig) -> int:
    cases, schema = load_dataset(args)
    if len(cases) < 2:
        raise DataFormatError(f"{args.data}: one case, and training needs 2")
    cases = _normalized(schema, cases, cases)
    result = _train(cases, cfg, args.seed)  # saved and reported even if diverged
    out = args.out or "model.chn"
    save_checkpoint(result.params, out)
    write_train_log(result.history, out + ".log.jsonl")
    last = result.history[-1] if result.history else None
    print(json.dumps({
        "checkpoint": out,
        "n_cases": len(cases),
        "epochs_run": len(result.history),
        "stopped_early": result.stopped_early,
        "diverged": result.diverged,
        "final_objective": None if last is None else last.objective,
        "final_val_objective": None if last is None else last.val_objective,
    }, indent=2))
    return 4 if result.diverged else 0


def cmd_eval(args, cfg: RunConfig) -> int:
    cases, schema = load_dataset(args)
    if args.hash == "lsh" or args.model:
        splits = [split(cases, args.train_frac, args.seed)]
        stored, held_out = splits[0]
        if not (stored and held_out):
            side = "held-out" if stored else "stored"
            raise ConfigError(f"--train-frac {args.train_frac} leaves no {side} case "
                              f"of the {len(cases)} cases")
    else:
        if args.folds > len(cases):
            raise ConfigError(f"--folds {args.folds} exceeds the {len(cases)} cases")
        if len(cases) - -(-len(cases) // args.folds) < 2:  # the largest fold held out
            raise ConfigError(f"--folds {args.folds} leaves one of the {len(cases)} cases "
                              "to train on, and training needs 2")
        splits = kfold(cases, args.folds, args.seed)

    with _open_out(args) as out:
        reports = []
        for k, (train_cases, test_cases) in enumerate(splits):
            train_cases, test_cases = _normalized(schema, train_cases,
                                                  train_cases, test_cases)
            coder = _coder(args, cfg, train_cases, seed=args.seed + k)
            idx = HashIndex.build(train_cases, coder)
            reports.append(evaluate(idx, coder, test_cases,
                                    top_n=cfg.hyper.top_n, max_radius=cfg.max_radius))

        aucs = [r.auc for r in reports if r.auc is not None]
        mean = {
            "accuracy": float(np.mean([r.accuracy for r in reports])),
            "auc": float(np.mean(aucs)) if aucs else None,
            "map_at_n": float(np.mean([r.map_at_n for r in reports])),
            "prec_at_n": float(np.mean([r.prec_at_n for r in reports])),
        }
        _report(out, json.dumps({"folds": [r.as_dict() for r in reports], "mean": mean},
                                indent=2, sort_keys=True))
    return 0


@contextlib.contextmanager
def _open_out(args, default=None):
    """The --out file, else default. Output goes to a temporary file beside
    --out, created now so that an --out that cannot be written fails before
    any work, and renamed onto --out only when the command succeeds; a
    failed run leaves what --out held as it was, and no temporary file."""
    if not args.out:
        yield default
        return
    if os.path.isdir(args.out):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), args.out)
    partial = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(partial, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(partial, args.out)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(partial)


def _report(out, text: str) -> None:
    """Print a command's JSON report, and write the same text to out, the
    --out file from _open_out, when there is one."""
    print(text)
    if out is not None:
        out.write(text + "\n")


def cmd_stream(args, cfg: RunConfig) -> int:
    cases, schema = load_dataset(args)
    n_init = max(2, int(round(len(cases) * args.train_frac)))
    if n_init >= len(cases):
        raise ConfigError("train fraction leaves no cases to stream")
    init, rest = cases[:n_init], cases[n_init:]
    init, rest = _normalized(schema, init, init, rest)
    with _open_out(args, sys.stdout) as out:
        return _stream(args, cfg, init, rest, out)


def _stream(args, cfg: RunConfig, init, rest, out) -> int:
    """Seed the index from init, solve rest in order, one JSONL line per
    solve to out, and give the summary on stderr."""
    coder = _coder(args, cfg, init, seed=args.seed)
    idx = HashIndex.build(init, coder)
    engine = CbrEngine(idx, coder, top_n=cfg.hyper.top_n,
                       max_radius=cfg.max_radius,
                       update_interval=cfg.hyper.n_u,
                       update_epochs=cfg.update_epochs,
                       update_lr=cfg.update_lr,
                       no_update=args.no_update, seed=args.seed)
    n_correct = n_empty = 0
    # the per-solve phase times the summary gives the p50 and p99 of: the
    # first three over every solve, retain_us over the solves that retained
    # without updating, update_us over the solves that updated
    phase_us = {name: [] for name in
                ("hash_us", "retrieve_us", "reuse_us", "retain_us", "update_us")}
    for case in rest:
        rec = engine.solve(case, true_label=case.label)
        n_correct += 1 if rec.correct else 0
        n_empty += rec.suggestion.label is None
        line = {
            "id": case.id,
            "predicted": rec.suggestion.label,
            "true": case.label,
            "correct": rec.correct,
            "retained": rec.retained,
            "updated": rec.updated,
            "radius_used": rec.suggestion.retrieval.radius_used,
            "n_candidates": rec.suggestion.retrieval.n_candidates,
            "hash_us": round(rec.suggestion.hash_us, 1),
            "retrieve_us": round(rec.suggestion.retrieve_us, 1),
            "reuse_us": round(rec.suggestion.reuse_us, 1),
            "retain_us": round(rec.retain_us, 1),
            "update_us": round(rec.update_us, 1),
        }
        if rec.update is not None:
            line.update(update_loss=rec.update.loss, update_pairs=rec.update.pairs,
                        update_steps=rec.update.steps,
                        recode_us=round(rec.update.recode_us, 1),
                        code_churn=rec.update.churn)
        print(json.dumps(line), file=out)
        for name in ("hash_us", "retrieve_us", "reuse_us"):
            phase_us[name].append(line[name])
        if rec.updated:
            phase_us["update_us"].append(line["update_us"])
        elif rec.retained:
            phase_us["retain_us"].append(line["retain_us"])
    summary = {
        "streamed": len(rest),
        "accuracy": n_correct / len(rest),
        "empty_retrievals": n_empty,
        "model_updates": engine.n_updates,
        "final_cases": len(idx),
    }
    for name, values in phase_us.items():
        for q in (50, 99):
            summary[f"{name}_p{q}"] = (round(float(np.percentile(values, q)), 1)
                                       if values else None)
    print(json.dumps(summary), file=sys.stderr)
    return 0


def cmd_bench(args, cfg: RunConfig) -> int:
    cases, schema = load_dataset(args)
    if args.queries >= len(cases):
        raise ConfigError("--queries must be smaller than the dataset")
    if len(cases) - args.queries < 2 and args.hash != "lsh" and not args.model:
        raise ConfigError(f"--queries {args.queries} leaves one base case to train on, "
                          "and training needs 2")
    base, queries = cases[:-args.queries], cases[-args.queries:]
    base, queries = _normalized(schema, base, base, queries)

    with _open_out(args) as out:
        coder = _coder(args, cfg, base, seed=args.seed)
        idx = HashIndex.build(base, coder)
        _report(out, bench(idx, coder, queries, top_n=cfg.hyper.top_n,
                           max_radius=cfg.max_radius).to_json())
    return 0


def cmd_index(args, cfg: RunConfig) -> int:
    cases, schema = load_dataset(args)
    cases = _normalized(schema, cases, cases)
    coder = _coder(args, cfg, cases)
    idx = HashIndex.build(cases, coder)
    out = args.out or "cases.idx"
    idx.save(out)
    print(json.dumps({"path": out, "n_cases": len(idx), **idx.stats(), "bits": idx.r},
                     indent=2))
    return 0


def cmd_query(args, cfg: RunConfig) -> int:
    if not args.index:
        raise ConfigError("--index is required")
    try:
        idx = HashIndex.load(args.index)
    except OSError as exc:
        raise ConfigError(f"cannot read index file: {exc}") from None
    queries, schema = load_dataset(args, dim=idx.dim)
    if schema is not None:
        queries = _normalized(schema, queries, queries)
    coder = _coder(args, cfg, queries)
    if coder.r != idx.r:
        raise ConfigError(f"coder width {coder.r} does not match index width {idx.r}")
    with _open_out(args, sys.stdout) as out:
        for query in queries:
            res = idx.retrieve(query, coder.code(query), cfg.hyper.top_n,
                               max_radius=cfg.max_radius)
            print(json.dumps({
                "id": query.id,
                "neighbors": res.ids,
                "distances": [round(float(d), 6) for d in res.distances],
                "n_candidates": res.n_candidates,
                "radius_used": res.radius_used,
            }), file=out)
    return 0


def _checked(cast, ok, what: str):
    """An argparse type: cast the flag's text, then require ok(value)."""
    def parse(raw: str):
        value = cast(raw)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return parse


_FRACTION = _checked(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--data", help="input dataset (sparse text, or CSV with --schema)")
    shared.add_argument("--schema", help="sidecar schema file for CSV input")
    shared.add_argument("--config", help="key=value configuration file")
    shared.add_argument("--seed", type=int, default=0, help="root random seed")
    shared.add_argument("--out", help="output path")
    shared.add_argument("--hash", choices=("learned", "lsh"), default="learned",
                        help="code provider (default learned)")
    shared.add_argument("--model", help="checkpoint file for the learned coder")
    shared.add_argument("--bits", type=int, help="code width override")
    shared.add_argument("--top-n", dest="top_n", type=int,
                        help="neighbors per query override")
    shared.add_argument("--radius", type=int, help="max Hamming probe radius override")

    parser = argparse.ArgumentParser(
        prog="casehash",
        description="Learned sparse-case hashing: training, retrieval, streaming CBR.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("train", parents=[shared], help="fit a hash network checkpoint")
    p_eval = sub.add_parser("eval", parents=[shared],
                            help="cross-validated retrieval/suggestion metrics")
    p_eval.add_argument("--folds", type=_checked(int, lambda v: v >= 2, ">= 2"),
                        default=5)
    p_eval.add_argument("--train-frac", dest="train_frac", type=_FRACTION, default=0.8,
                        help="single-split fraction when --model/--hash lsh is given")
    p_stream = sub.add_parser("stream", parents=[shared],
                              help="solve cases in arrival order with retention")
    p_stream.add_argument("--train-frac", dest="train_frac", type=_FRACTION, default=0.5,
                          help="leading fraction used to seed the model and index")
    p_stream.add_argument("--no-update", dest="no_update", action="store_true",
                          help="freeze the case base and hash function")
    p_bench = sub.add_parser("bench", parents=[shared],
                             help="bucketed retrieval vs linear scan latency")
    p_bench.add_argument("--queries", type=_checked(int, lambda v: v >= 1, ">= 1"),
                         default=100,
                         help="trailing cases held out as timing queries")
    sub.add_parser("index", parents=[shared], help="build and save a case index")
    p_query = sub.add_parser("query", parents=[shared],
                             help="retrieve neighbors from a saved index")
    p_query.add_argument("--index", help="index file built by the index command")
    return parser


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "stream": cmd_stream,
    "bench": cmd_bench,
    "index": cmd_index,
    "query": cmd_query,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        echo_config(cfg, args)
        return _COMMANDS[args.command](args, cfg)
    # every input is read under ConfigError or DataFormatError, so an OSError
    # here failed to write an output, such as an --out that is a directory
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
