"""Command-line entry point.

Subcommands: losses (compare two feature CSVs), gradcheck (finite-difference
validation), train (one run, metrics + checkpoint), ablate (loss-configuration
sweep). Exit codes: 0 success, 1 a failed check or `NumericalFailure` (with
`NotPositiveDefinite`), 2 bad input (`InvalidInput`, with `ParseError`), usage or I/O error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data as D
from . import training
from .exceptions import LogCoralError, NumericalFailure, ParseError, InvalidInput
from .gradcheck import THRESHOLDS, run_gradcheck
from .linalg import default_epsilon
from .losses import LossWeights, coral_loss, log_euclidean, mean_loss
from .network import evaluate
from .stats import batch_covariance, batch_mean
from .training import RunConfig

WEIGHT_KEYS = {"cls": "classification", "classification": "classification",
               "coral": "coral", "logcoral": "logcoral", "mean": "mean"}


def parse_weights(text: str) -> LossWeights:
    """Parse 'cls=1,logcoral=1,mean=0.5' into LossWeights. Values are
    multipliers of each loss's calibrated base scale; unmentioned losses take
    `LossWeights.from_multipliers`' defaults: 1 for classification, else 0; a loss named twice is InvalidInput."""
    values = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise InvalidInput(f"bad weight entry {item!r}, expected key=value")
        key, _, val = item.partition("=")
        key = key.strip().lower()
        if key not in WEIGHT_KEYS:
            raise InvalidInput(f"unknown loss weight {key!r}; valid: cls, coral, logcoral, mean")
        if WEIGHT_KEYS[key] in values:  # cls and classification name one loss
            raise InvalidInput(f"the {WEIGHT_KEYS[key]} loss is weighted twice, the second time as {key!r}")
        try:
            values[WEIGHT_KEYS[key]] = float(val)
        except ValueError:
            raise InvalidInput(f"bad weight value {val!r} for {key}")
    return LossWeights.from_multipliers(**values)


def read_config_file(path) -> dict:
    """Flat key=value file, '#' comments; a key given twice is a ParseError at its second line."""
    out = {}
    with D._utf8_text(path, " config") as f:  # a leading byte-order mark is no part of the first key
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}", line=lineno, path=path)
            key, _, val = line.partition("=")
            if (key := key.strip()) in out:
                raise ParseError(f"key {key!r} is given twice", line=lineno, path=path)
            out[key] = val.strip()
    return out


# RunConfig keys settable by config file, and by flag where one exists
CONFIG_KEYS = {"seed": int, "steps": int, "batch": int, "lr": float, "epsilon": float,
               "momentum": float, "weights": parse_weights, "num_classes": int, "dim": int,
               "samples_per_class": int, "eval_every": int}


def run_config_values(args) -> dict:
    """RunConfig keyword values given as CLI flags or config-file keys; flags win."""
    given = read_config_file(args.config) if args.config else {}
    for key in given:
        if key not in CONFIG_KEYS:
            raise InvalidInput(f"unknown config key {key!r}; valid: {', '.join(CONFIG_KEYS)}")
    given.update((key, getattr(args, key)) for key in CONFIG_KEYS
                 if getattr(args, key, None) is not None)
    kwargs = {}
    for key, cast in CONFIG_KEYS.items():
        if key in given:
            try:
                kwargs[key] = cast(given[key])
            except ValueError:
                raise InvalidInput(f"bad value {given[key]!r} for {key}")
    return kwargs


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for key, val in report.items():
            print(f"{key}: {val}")


def cmd_losses(args) -> int:
    source = D.load_csv(args.source, has_labels=args.labels)
    target = D.load_csv(args.target, has_labels=args.labels)
    cov_s, cov_t = batch_covariance(source), batch_covariance(target)
    eps = args.epsilon or max(default_epsilon(cov_s), default_epsilon(cov_t))  # 0: the scale-relative shift
    le = log_euclidean(cov_s, cov_t, eps)
    report = {
        "coral": coral_loss(cov_s, cov_t).value,
        "logcoral": le.value,
        "mean": mean_loss(batch_mean(source), batch_mean(target)).value,
        "cond_source": float(le.eig_s.values[-1] / le.eig_s.values[0]),
        "cond_target": float(le.eig_t.values[-1] / le.eig_t.values[0]),
        "epsilon": eps,
    }
    _emit(report, args.format)
    return 0


def cmd_gradcheck(args) -> int:
    result = run_gradcheck(dims=args.dims, seeds=range(args.seed, args.seed + args.trials))
    report = {name: {"max_rel_error": err, "threshold": THRESHOLDS[name],
                     "status": "FAIL" if name in result.failed else "pass"}
              for name, err in result.errors.items()}
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        for name, row in report.items():
            print(f"{name}: max rel error {row['max_rel_error']:.3e} "
                  f"(threshold {row['threshold']:.0e}) {row['status']}")
    if not result.passed:
        out_dir = args.out or "."
        os.makedirs(out_dir, exist_ok=True)
        dump = os.path.join(out_dir, "gradcheck_failure.npz")
        arrays = {f"{name}_{key}": np.asarray(value)
                  for name in result.failed for key, value in result.worst_case[name].items()}
        np.savez(dump, **arrays)
        print(f"worst-case inputs written to {dump}", file=sys.stderr)
        return 1
    return 0


def _load_dataset(args, config: RunConfig):
    if args.source_csv or args.target_csv:
        if not (args.source_csv and args.target_csv):
            raise InvalidInput("provide both --source-csv and --target-csv, or neither")
        source = D.load_csv(args.source_csv, has_labels=True)
        target = D.load_csv(args.target_csv, has_labels=True)
        return D.DatasetPair(source=source, target=target)
    return training.default_dataset(config)


def cmd_train(args) -> int:
    """One `training.train` run into --out (default run/), which `train` makes once its input fits. A --resume
    run's config starts from the checkpoint's `training.RUN_SETTINGS`; `train` refuses a flag or key that differs."""
    state = training.load_checkpoint(args.resume) if args.resume else None
    values = ({key: getattr(state, key) for key in training.RUN_SETTINGS} if state else {}) | run_config_values(args)
    synthetic = [key for key in ("num_classes", "dim", "samples_per_class") if key in values]
    if synthetic and (args.source_csv or args.target_csv):  # these keys shape only the synthetic data
        raise InvalidInput(f"the CSV files give the data; remove the config keys {', '.join(synthetic)}")
    config = RunConfig(**values)
    dataset = _load_dataset(args, config)
    out_dir = args.out or "run"
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    checkpoint_path = os.path.join(out_dir, "checkpoint.npz")
    try:
        state, records = training.train(config, dataset, state=state,
                                        metrics_path=metrics_path,
                                        checkpoint_path=checkpoint_path)
    except NumericalFailure as exc:
        print(f"numerical failure at step {exc.step}: {exc}; last good state saved to {checkpoint_path}",
              file=sys.stderr)
        return 1
    final_acc = evaluate(state.model, dataset.target)
    summary = {"steps": state.step, "final_target_acc": final_acc,
               "metrics": metrics_path, "checkpoint": checkpoint_path}
    if records:
        summary["final_losses"] = {k: v for k, v in records[-1].items() if k.startswith("loss_")}
    _emit(summary, args.format)
    return 0


def cmd_ablate(args) -> int:
    values = run_config_values(args)
    if "weights" in values:
        raise InvalidInput("ablate sets the weights of each configuration itself; "
                           "remove the config key 'weights'")
    config = RunConfig(**values)
    table = training.ablate(config, seeds=range(config.seed, config.seed + args.seeds))

    def shown(row):  # text and csv show nan where every seed of a configuration failed
        return (row["mean"], row["std"]) if row["accs"] else (np.nan, np.nan)
    if args.format == "json":
        print(json.dumps(table, indent=2))
    elif args.format == "csv":
        print("config,mean_acc,std_acc,n_seeds,n_failed")
        for name, row in table.items():
            mean, std = shown(row)
            print(f"{name},{mean:.4f},{std:.4f},{len(row['accs'])},{len(row['failed'])}")
    else:
        width = max(len(n) for n in table)
        for name, row in table.items():
            mean, std = shown(row)
            marker = f"  ({len(row['failed'])} failed)" if row["failed"] else ""
            print(f"{name:<{width}}  {mean*100:6.2f} +/- {std*100:.2f}{marker}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "ablation.json"), "w", encoding="utf-8") as f:
            json.dump(table, f, indent=2)
    return 0


def _add_common(p):
    p.add_argument("--config", help="flat key=value config file; flags override it")
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--momentum", type=float, help="moving-average momentum of both domains' statistics, "
                   "in [0, 1); 0 is the paper's per-batch statistics")
    p.add_argument("--out", help="output directory")


def _add_format(p, *extra):
    p.add_argument("--format", choices=["text", "json", *extra], default="text")


def _dims(text: str) -> tuple:
    return tuple(int(d) for d in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="logcoral",
                                     description="Covariance-alignment losses and a small adaptation trainer")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("losses", help="compute alignment losses between two feature CSVs")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--labels", action="store_true", help="last CSV column is an integer label")
    p.add_argument("--epsilon", type=float, default=0.0)
    _add_format(p)
    p.set_defaults(func=cmd_losses)

    p = sub.add_parser("gradcheck", help="finite-difference check of all analytic gradients")
    p.add_argument("--dims", type=_dims, default=(2, 5, 16),
                   help="comma-separated matrix sizes (default 2,5,16)")
    p.add_argument("--trials", type=int, default=20, help="random seeds per size")
    p.add_argument("--seed", type=int, default=0)
    _add_format(p)
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train", help="train the classifier with alignment losses")
    p.add_argument("--source-csv", help="labeled source features (last column label)")
    p.add_argument("--target-csv", help="target features (labels used only for eval)")
    p.add_argument("--resume", help="checkpoint to continue from, with its lr, momentum and epsilon")
    p.add_argument("--weights",
                   help="per-loss multipliers of the calibrated base scales, e.g. cls=1,logcoral=1,mean=1")
    _add_common(p)
    _add_format(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate", help="sweep loss configurations over seeds")
    p.add_argument("--seeds", type=int, default=5, help="number of seeds")
    _add_common(p)
    _add_format(p, "csv")  # the one subcommand that writes CSV
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, LogCoralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (OSError, InvalidInput)) else 1
