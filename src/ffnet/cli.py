"""Command-line front end: fetch, train, eval, sweep.

Flag precedence for train/sweep is CLI > --config JSON file > built-in
defaults; the fully resolved config is persisted in the run directory.
Exits 0 on success, 1 with a one-line ``error: ...`` message on failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import statistics
import sys
from pathlib import Path

from .analysis import parse_subset_label, subset_label
from .errors import ConfigError
from .ff import GAMMA_MODES, SCHEDULES
from .fetch import DATASETS, fetch_dataset
from .reports import write_json
from .runner import METHODS, RunConfig, evaluate_checkpoint, run_from_paths
from .runner import run_sweep, run_variants


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    # argparse.SUPPRESS keeps unset flags out of the namespace so the
    # config-file layer can fill them.
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument("--dataset", choices=sorted(DATASETS), default=argparse.SUPPRESS)
    parser.add_argument("--method", choices=METHODS, default=argparse.SUPPRESS)
    parser.add_argument("--gamma-mode", choices=GAMMA_MODES, default=argparse.SUPPRESS)
    parser.add_argument("--schedule", choices=SCHEDULES, default=argparse.SUPPRESS)
    parser.add_argument("--theta", type=float, default=argparse.SUPPRESS)
    parser.add_argument("--epochs", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--batch-size", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--learning-rate", type=float, default=argparse.SUPPRESS)
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    parser.add_argument(
        "--layer-dims",
        type=_int_list,
        default=argparse.SUPPRESS,
        help="comma-separated dims including input (e.g. 794,500,500,500)",
    )
    parser.add_argument("--output-dir", default=argparse.SUPPRESS)
    parser.add_argument("--entropy-eval-n", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--eval-every", type=int, default=argparse.SUPPRESS)
    parser.add_argument("--data-dir", default=argparse.SUPPRESS)
    parser.add_argument("--train-subset", type=int, default=argparse.SUPPRESS)
    parser.add_argument(
        "--negatives-per-positive", type=int, default=argparse.SUPPRESS
    )
    parser.add_argument(
        "--classic-normalize", action="store_true", default=argparse.SUPPRESS
    )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config_path = getattr(args, "config", None)
    from_file = {} if config_path is None else json.loads(Path(config_path).read_text())
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    flags = {key: value for key, value in vars(args).items() if key in fields}
    return dataclasses.replace(RunConfig.from_dict(from_file), **flags)


def cmd_fetch(args: argparse.Namespace) -> int:
    paths = fetch_dataset(args.dataset, args.data_dir)
    for path in paths:
        print(path)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    seeds = getattr(args, "seeds", None)
    if seeds is not None:
        if not seeds:
            raise ConfigError("train needs at least one seed value")
        _, summaries = run_variants(cfg, "seed", seeds, "seed_{}")
        errors = [summary["final_test_error"] for summary in summaries]
        for seed, error in zip(seeds, errors):
            print(f"seed {seed}: test error {error:.4f}")
        aggregate = {
            "seeds": list(seeds),
            "per_seed_test_error": errors,
            "mean_test_error": statistics.fmean(errors),
            "std_test_error": statistics.pstdev(errors),
        }
        write_json(Path(cfg.output_dir) / "summary.json", aggregate)
        print(
            f"mean test error {aggregate['mean_test_error']:.4f} "
            f"+/- {aggregate['std_test_error']:.4f}"
        )
        return 0
    summary = run_from_paths(cfg)
    print(f"final test error: {summary['final_test_error']:.4f}")
    print(f"artifacts in {cfg.resolved().output_dir}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    subsets = None
    if args.subsets is not None:
        if not args.subsets.strip():
            raise ConfigError("--subsets needs at least one subset")
        subsets = [parse_subset_label(part) for part in args.subsets.split(",")]
        for i, subset in enumerate(subsets):
            if subset in subsets[:i]:
                raise ConfigError(f"--subsets repeats subset {subset_label(subset)}")
    summary = evaluate_checkpoint(
        args.checkpoint,
        args.output_dir,
        dataset=getattr(args, "dataset", None),
        data_dir=getattr(args, "data_dir", None),
        subsets=subsets,
    )
    print(f"test error: {summary['test_error']:.4f}")
    print(f"reports in {args.output_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    rows = run_sweep(cfg, args.thetas, parallel=getattr(args, "parallel", 0) or 0)
    for row in rows:
        print(f"theta={row['theta']:g}: test error {row['final_test_error']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffnet",
        description="Forward-forward training, collaboration analysis, and baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fetch = sub.add_parser("fetch", help="download and verify a dataset")
    fetch.add_argument("dataset", choices=sorted(DATASETS))
    fetch.add_argument("--data-dir", default=None)
    fetch.set_defaults(func=cmd_fetch)

    train = sub.add_parser("train", help="train one configuration")
    _add_run_flags(train)
    train.add_argument(
        "--seeds", type=_int_list, default=None, help="run per seed, report mean/std"
    )
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("eval", help="evaluate a checkpoint")
    evaluate.add_argument("checkpoint", type=Path)
    evaluate.add_argument("--output-dir", required=True)
    evaluate.add_argument("--dataset", choices=sorted(DATASETS), default=argparse.SUPPRESS)
    evaluate.add_argument("--data-dir", default=argparse.SUPPRESS)
    evaluate.add_argument(
        "--subsets",
        default=None,
        help="comma-separated 1-based subsets, e.g. '1,1+2,1+2+3'",
    )
    evaluate.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="train one run per theta")
    _add_run_flags(sweep)
    sweep.add_argument("--thetas", type=_float_list, required=True)
    sweep.add_argument("--parallel", type=int, default=0)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
