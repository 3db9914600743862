"""Command-line front end: fetch, train, eval, sweep.

It only parses: the library call a command makes checks every rule of the
request, so ``ffnet`` and a library caller get the same errors. The train and
sweep flags are one per ``RunConfig`` field. Flag precedence for train/sweep
is CLI > --config JSON file > built-in defaults; the fully resolved config is
persisted in the run directory. A field's flag given with the list flag that
sets the field per run (``--seed`` with ``--seeds``, ``--theta`` with
``--thetas``) is an error before anything is written.
Exits 0 on success, 1 with a one-line ``error: ...`` message, and no warning, on failure.
``train --seeds`` and ``sweep`` run their variants one after another in this
process, so :func:`main` holds every warning their runs raise.
"""

from __future__ import annotations

import argparse
import collections.abc
import dataclasses
import json
import statistics
import sys
import typing
import warnings
from pathlib import Path

from .analysis import parse_subset_label
from .errors import ConfigError
from .ff import GAMMA_MODES, SCHEDULES
from .fetch import DATASET_NAMES, fetch_dataset
from .reports import write_json
from .runner import METHODS, RunConfig, evaluate_checkpoint, run_from_paths
from .runner import run_sweep, run_variants


def _comma_list(text: str, convert=str) -> list:
    """``convert`` of each comma-separated part of ``text``. A blank part is
    rejected, so a typo cannot drop a value, unless every part is blank:
    that is the empty list, which the library rejects with its own error. A
    part ``convert`` cannot read is named in the usage error."""
    parts = [part.strip() for part in text.split(",")]
    if not any(parts):
        return []
    if not all(parts):
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    values = []
    for part in parts:
        try:
            values.append(convert(part))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad entry {part!r} in {text!r}") from None
    return values


def _int_list(text: str) -> list[int]:
    return _comma_list(text, int)


def _float_list(text: str) -> list[float]:
    return _comma_list(text, float)


# The fixed choices of four RunConfig fields and the help of one flag; every
# other part of a field's flag comes from its name and annotation.
FLAG_CHOICES = {
    "dataset": DATASET_NAMES,
    "method": METHODS,
    "gamma_mode": GAMMA_MODES,
    "schedule": SCHEDULES,
}
FLAG_HELP = {"layer_dims": "comma-separated dims including input (e.g. 794,500,500,500)"}


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """``--config`` and one flag per RunConfig field, in field order."""
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    hints = typing.get_type_hints(RunConfig)
    for field in dataclasses.fields(RunConfig):
        hint = hints[field.name]
        if typing.get_origin(hint) is typing.Union:  # Optional[X] parses as X
            hint = typing.get_args(hint)[0]
        # argparse.SUPPRESS keeps unset flags out of the namespace so the
        # config-file layer can fill them.
        sequence = typing.get_origin(hint) is collections.abc.Sequence
        parser.add_argument(
            "--" + field.name.replace("_", "-"), type=_int_list if sequence else hint,
            choices=FLAG_CHOICES.get(field.name), default=argparse.SUPPRESS,
            help=FLAG_HELP.get(field.name),
        )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config_path = getattr(args, "config", None)
    try:
        from_file = {} if config_path is None else json.loads(Path(config_path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {config_path} is not valid JSON: {exc}") from exc
    fields = {field.name for field in dataclasses.fields(RunConfig)}
    flags = {key: value for key, value in vars(args).items() if key in fields}
    return dataclasses.replace(RunConfig.from_dict(from_file), **flags)


def _check_list_flag(args: argparse.Namespace, field: str, list_flag: str) -> None:
    """Reject ``field``'s own flag when ``list_flag`` sets ``field`` for every run."""
    if hasattr(args, field):
        raise ConfigError(f"--{field} conflicts with --{list_flag}; give one of them")


def cmd_fetch(args: argparse.Namespace) -> int:
    paths = fetch_dataset(args.dataset, args.data_dir)
    for path in paths:
        print(path)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    seeds = getattr(args, "seeds", None)
    if seeds is not None:
        _check_list_flag(args, "seed", "seeds")
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
        subsets = [parse_subset_label(part) for part in args.subsets]
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
    _check_list_flag(args, "theta", "thetas")
    cfg = _config_from_args(args)
    rows = run_sweep(cfg, args.thetas)
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
    fetch.add_argument("dataset", choices=DATASET_NAMES)
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
    evaluate.add_argument("--dataset", choices=DATASET_NAMES, default=argparse.SUPPRESS)
    evaluate.add_argument("--data-dir", default=argparse.SUPPRESS)
    evaluate.add_argument(
        "--subsets",
        type=_comma_list,
        default=None,
        help="comma-separated 1-based subsets, e.g. '1,1+2,1+2+3'",
    )
    evaluate.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="train one run per theta")
    _add_run_flags(sweep)
    sweep.add_argument("--thetas", type=_float_list, required=True)
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    held, show = [], warnings.showwarning
    warnings.showwarning = lambda *w: held.append(w)
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as exc:
        held.clear()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.showwarning = show
        for w in held:
            show(*w)
