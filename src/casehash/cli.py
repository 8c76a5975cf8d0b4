"""Command line front end.

Subcommands: train, eval, stream, bench, index, query. Configuration comes
from defaults, then an optional key=value --config file, then explicit
flags; the resolved configuration is echoed to stderr as `# key=value`
lines before any work starts. Exit codes: 0 success, 2 configuration or
usage error, 3 malformed or missing input data, 4 training divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields

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
    load_csv,
    load_sparse_text,
    normalize,
    parse_schema_spec,
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


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_HYPER_KEYS = {
    "k_w": int, "k_v": int, "r": int, "l": int, "hidden": int,
    "alpha": float, "lambda": float, "lambda_": float, "beta": float,
    "n_u": int, "top_n": int, "first_order": _parse_bool,
}
_RUN_KEYS = {
    "epochs": int, "batch_size": int, "lr": float, "optimizer": str,
    "patience": int, "min_delta": float, "neg_ratio": float,
    "max_radius": int, "update_epochs": int, "update_lr": float,
}


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
        for key, raw in read_config_file(args.config).items():
            if key in _HYPER_KEYS:
                target, caster = hyper_kwargs, _HYPER_KEYS[key]
                name = "lambda_" if key == "lambda" else key
            elif key in _RUN_KEYS:
                target, caster = run_kwargs, _RUN_KEYS[key]
                name = key
            else:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                target[name] = caster(raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None

    if getattr(args, "bits", None) is not None:
        hyper_kwargs["r"] = args.bits
    if getattr(args, "top_n", None) is not None:
        hyper_kwargs["top_n"] = args.top_n
    if getattr(args, "radius", None) is not None:
        run_kwargs["max_radius"] = args.radius
    if run_kwargs.get("optimizer", "adam") not in ("adam", "sgd"):
        raise ConfigError(f"unknown optimizer {run_kwargs['optimizer']!r}")
    try:
        hyper = Hyperparams(**hyper_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(hyper=hyper, **run_kwargs)


def echo_config(cfg: RunConfig, args) -> None:
    pairs = [("command", args.command), ("seed", args.seed),
             ("hash", getattr(args, "hash", "learned"))]
    pairs += [(f.name, getattr(cfg.hyper, f.name)) for f in fields(Hyperparams)]
    pairs += [(f.name, getattr(cfg, f.name)) for f in fields(RunConfig)
              if f.name != "hyper"]
    for key, value in pairs:
        print(f"# {key}={value}", file=sys.stderr)


def load_dataset(args):
    """Cases plus (for CSV input) the fitted-vocabulary schema."""
    if not getattr(args, "data", None):
        raise ConfigError("--data is required")
    if getattr(args, "schema", None):
        try:
            with open(args.schema, "r", encoding="utf-8") as fh:
                spec = parse_schema_spec(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read schema file: {exc}") from None
        return load_csv(args.data, spec)
    return load_sparse_text(args.data), None


def _normalized(schema, fit_on, *case_lists):
    """Fit numeric ranges on fit_on, then normalize every list; no-op without schema."""
    if schema is None:
        return case_lists if len(case_lists) > 1 else case_lists[0]
    fit_ranges(schema, fit_on)
    out = tuple(normalize(cl, schema) for cl in case_lists)
    return out if len(out) > 1 else out[0]


def _make_coder(args, cfg: RunConfig, cases):
    """A code provider: sampled LSH planes, a loaded checkpoint, or None."""
    if args.hash == "lsh":
        dim = cases[0].features.dim
        return LshPlanes.sample(cfg.hyper.r, dim, args.seed)
    if getattr(args, "model", None):
        try:
            return load_checkpoint(args.model, cfg.hyper)
        except OSError as exc:
            raise ConfigError(f"cannot read model file: {exc}") from None
        except DataFormatError:
            raise
        except ValueError as exc:  # the file's structure disagrees with cfg
            raise ConfigError(str(exc)) from None
    return None


def _train(cases, cfg: RunConfig, seed: int):
    return train(cases, cfg.hyper, epochs=cfg.epochs, seed=seed,
                 batch_size=cfg.batch_size, optimizer=cfg.optimizer,
                 lr=cfg.lr, neg_ratio=cfg.neg_ratio, patience=cfg.patience,
                 min_delta=cfg.min_delta)


def _train_coder(train_cases, cfg: RunConfig, seed: int):
    """Trained parameters; divergence raises DivergenceError."""
    result = _train(train_cases, cfg, seed)
    if result.diverged:
        raise DivergenceError("training diverged")
    return result.params


def cmd_train(args, cfg: RunConfig) -> int:
    cases, schema = load_dataset(args)
    cases = _normalized(schema, cases, cases)
    result = _train(cases, cfg, args.seed)  # saved and reported even if diverged
    out = args.out or "model.chn"
    save_checkpoint(result.params, out)
    write_train_log(result.history, csv_path=out + ".log.csv",
                    jsonl_path=out + ".log.jsonl")
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
    from .sparse import kfold, split

    cases, schema = load_dataset(args)
    coder = _make_coder(args, cfg, cases)
    folds = []
    if coder is not None:
        train_cases, test_cases = split(cases, args.train_frac, args.seed)
        folds.append((train_cases, test_cases, coder))
    else:
        for train_cases, test_cases in kfold(cases, args.folds, args.seed):
            folds.append((train_cases, test_cases, None))

    reports = []
    for k, (train_cases, test_cases, fold_coder) in enumerate(folds):
        train_cases, test_cases = _normalized(schema, train_cases,
                                              train_cases, test_cases)
        if fold_coder is None:
            fold_coder = _train_coder(train_cases, cfg, args.seed + k)
        idx = HashIndex.build(train_cases, fold_coder)
        reports.append(evaluate(idx, fold_coder, test_cases,
                                top_n=cfg.hyper.top_n, max_radius=cfg.max_radius))

    aucs = [r.auc for r in reports if r.auc is not None]
    mean = {
        "accuracy": float(np.mean([r.accuracy for r in reports])),
        "auc": float(np.mean(aucs)) if aucs else None,
        "map_at_n": float(np.mean([r.map_at_n for r in reports])),
        "prec_at_n": float(np.mean([r.prec_at_n for r in reports])),
    }
    print(json.dumps({"folds": [r.as_dict() for r in reports], "mean": mean},
                     indent=2, sort_keys=True))
    if args.out:
        if len(reports) == 1:
            reports[0].write_csv(args.out)
        else:
            _write_mean_csv(args.out, mean)
    return 0


def _write_mean_csv(path, mean: dict) -> None:
    keys = list(mean)
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write(",".join(keys) + "\n")
        fh.write(",".join("" if mean[k] is None else str(mean[k]) for k in keys) + "\n")


def cmd_stream(args, cfg: RunConfig) -> int:
    cases, schema = load_dataset(args)
    n_init = max(2, int(round(len(cases) * args.train_frac)))
    if n_init >= len(cases):
        raise ConfigError("train fraction leaves no cases to stream")
    init, rest = cases[:n_init], cases[n_init:]
    init, rest = _normalized(schema, init, init, rest)

    coder = _make_coder(args, cfg, init)
    if coder is None:
        coder = _train_coder(init, cfg, args.seed)
    idx = HashIndex.build(init, coder)
    engine = CbrEngine(idx, coder, top_n=cfg.hyper.top_n,
                       max_radius=cfg.max_radius,
                       update_interval=cfg.hyper.n_u,
                       update_epochs=cfg.update_epochs,
                       update_lr=cfg.update_lr,
                       no_update=args.no_update, seed=args.seed)
    n_correct = n_empty = n_truncated = 0
    # the per-solve phase times the summary gives the p50 and p99 of: the
    # first three over every solve, retain_us over the solves that retained
    # without updating, update_us over the solves that updated
    phase_us = {name: [] for name in
                ("hash_us", "retrieve_us", "reuse_us", "retain_us", "update_us")}
    for case in rest:
        rec = engine.solve(case, true_label=case.label)
        n_correct += 1 if rec.correct else 0
        n_empty += rec.suggestion.label is None
        retrieval = rec.suggestion.retrieval
        n_truncated += retrieval.truncated
        line = {
            "id": case.id,
            "predicted": rec.suggestion.label,
            "true": case.label,
            "correct": rec.correct,
            "retained": rec.retained,
            "updated": rec.updated,
            "radius_used": retrieval.radius_used,
            "n_candidates": retrieval.n_candidates,
            "truncated": retrieval.truncated,
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
        print(json.dumps(line))
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
        "truncated_retrievals": n_truncated,
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
    base, queries = cases[:-args.queries], cases[-args.queries:]
    base, queries = _normalized(schema, base, base, queries)

    coder = _make_coder(args, cfg, base)
    if coder is None:
        coder = _train_coder(base, cfg, args.seed)
    idx = HashIndex.build(base, coder)
    result = bench(idx, coder, queries, top_n=cfg.hyper.top_n,
                   max_radius=cfg.max_radius)
    print(result.to_json())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.to_json() + "\n")
    return 0


def cmd_index(args, cfg: RunConfig) -> int:
    cases, schema = load_dataset(args)
    cases = _normalized(schema, cases, cases)
    coder = _make_coder(args, cfg, cases)
    if coder is None:
        raise ConfigError("index requires --model or --hash lsh")
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
    queries, schema = load_dataset(args)
    if schema is not None:
        queries = _normalized(schema, queries, queries)
    coder = _make_coder(args, cfg, queries)
    if coder is None:
        raise ConfigError("query requires --model or --hash lsh")
    for query in queries:
        res = idx.retrieve(query, coder.code(query), cfg.hyper.top_n,
                           max_radius=cfg.max_radius)
        print(json.dumps({
            "id": query.id,
            "neighbors": res.ids,
            "distances": [round(float(d), 6) for d in res.distances],
            "n_candidates": res.n_candidates,
            "radius_used": res.radius_used,
        }))
    return 0


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
    p_eval.add_argument("--folds", type=int, default=5)
    p_eval.add_argument("--train-frac", dest="train_frac", type=float, default=0.8,
                        help="single-split fraction when --model/--hash lsh is given")
    p_stream = sub.add_parser("stream", parents=[shared],
                              help="solve cases in arrival order with retention")
    p_stream.add_argument("--train-frac", dest="train_frac", type=float, default=0.5,
                          help="leading fraction used to seed the model and index")
    p_stream.add_argument("--no-update", dest="no_update", action="store_true",
                          help="freeze the case base and hash function")
    p_bench = sub.add_parser("bench", parents=[shared],
                             help="bucketed retrieval vs linear scan latency")
    p_bench.add_argument("--queries", type=int, default=100,
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
