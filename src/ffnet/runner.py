"""Run orchestration shared by the CLI and the test harness.

A RunConfig pins everything a training run needs; the resolved form (all
defaults expanded) is persisted next to the artifacts so any run directory
can be reproduced bit for bit with the same code.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import subprocess
import time
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import baselines, ff
from .analysis import (
    check_subset_family, default_subset_family, marginal_contributions, subset_errors,
)
from .checkpoint import config_hash, load_checkpoint, save_checkpoint
from .data import DATASET_DIMS, N_LABELS, Dataset, draw_eval_sample
from .entropy import split_entropy_reports
from .errors import CheckpointError, ConfigError, check_choice
from .fetch import load_dataset
from .linalg import make_rng
from .nn import MlpNetwork, check_layer_dims, init_network
from .reports import (
    HISTORY_FIELDS,
    entropy_fields,
    entropy_row,
    marginals_table,
    subsets_table,
    write_csv,
    write_csv_reports,
    write_json,
)


# A method's row. linked: it scores the goodness of label-linked inputs, else the
# logits of a label head. layer_local: it trains under gamma_mode and schedule (the
# defaults here) and votes on every layer, else it is one backprop stage that votes
# on and logs the last layer. loss_kind is its FfConfig.loss_kind, and train(net, ds,
# cfg, on_epoch) its trainer.
Method = collections.namedtuple(
    "Method", "linked layer_local gamma_mode schedule loss_kind train"
)
METHOD_TABLE = {
    "ff": Method(True, True, "none", "layerwise", "sigmoid_goodness", ff.train),
    "collab_ff": Method(
        True, True, "all_other_layers", "alternating", "sigmoid_goodness", ff.train
    ),
    "entropy_ff": Method(True, True, "none", "layerwise", "entropy", ff.train),
    "bp_pairwise": Method(
        True, False, "none", "layerwise", "sigmoid_goodness", baselines.train_pairwise
    ),
    "bp_classic": Method(
        False, False, "none", "layerwise", "sigmoid_goodness", baselines.train_classic
    ),
}
METHODS = tuple(METHOD_TABLE)

DEFAULT_HIDDEN = (500, 500, 500)


def _input_width(method: Method, d: int) -> int:
    """Network input width for ``d``-wide samples: a linked method adds a label."""
    return d + N_LABELS if method.linked else d


def _check_input_width(method: str, input_dim: int, d: int, data: str) -> None:
    """Reject a network ``input_dim`` wide for ``method`` on ``d``-wide ``data``."""
    expected = _input_width(METHOD_TABLE[method], d)
    if input_dim != expected:
        raise ConfigError(
            f"layer_dims[0] must be {expected} for {method} on {data}, got {input_dim}"
        )


@dataclass
class RunConfig:
    dataset: str = "mnist"
    method: str = "ff"
    gamma_mode: Optional[str] = None
    schedule: Optional[str] = None
    theta: float = ff.FfConfig.theta
    epochs: int = ff.FfConfig.epochs
    batch_size: int = ff.FfConfig.batch_size
    learning_rate: float = ff.FfConfig.learning_rate
    seed: int = ff.FfConfig.seed
    layer_dims: Optional[Sequence[int]] = None
    output_dir: str = "runs/run"
    entropy_eval_n: int = 2000
    eval_every: int = 10
    data_dir: Optional[str] = None
    train_subset: Optional[int] = None

    def resolved(self) -> "RunConfig":
        """Fill method-dependent defaults and validate."""
        check_choice("method", self.method, METHODS)
        out = dataclasses.replace(self)
        method = METHOD_TABLE[self.method]
        if out.gamma_mode is None:
            out.gamma_mode = method.gamma_mode
        if out.schedule is None:
            out.schedule = method.schedule
        for name, value in _unread_settings(method).items():
            if getattr(out, name) != value:
                raise ConfigError(
                    f"{self.method} ignores {name}; it must be {value!r}, "
                    f"got {getattr(out, name)!r}"
                )
        d = DATASET_DIMS.get(self.dataset)
        if d is None and out.layer_dims is None:
            # Custom datasets (synthetic, tests) must spell the dims out.
            raise ConfigError(
                f"dataset {self.dataset!r} is not one of {sorted(DATASET_DIMS)}; "
                "pass layer_dims explicitly"
            )
        if out.layer_dims is None:
            head = () if method.linked else (N_LABELS,)
            out.layer_dims = (_input_width(method, d), *DEFAULT_HIDDEN, *head)
        out.layer_dims = check_layer_dims(out.layer_dims)
        if d is not None:
            _check_input_width(self.method, out.layer_dims[0], d, self.dataset)
        if not method.linked and out.layer_dims[-1] != N_LABELS:
            raise ConfigError(
                f"{self.method} needs a {N_LABELS}-wide head, got {out.layer_dims[-1]}"
            )
        if out.eval_every < 1:
            raise ConfigError(f"eval_every must be >= 1, got {out.eval_every}")
        if out.entropy_eval_n < 2:
            raise ConfigError(f"entropy_eval_n must be >= 2, got {out.entropy_eval_n}")
        if out.train_subset is not None and out.train_subset < 1:
            raise ConfigError(f"train_subset must be >= 1, got {out.train_subset}")
        # Delegate the shared numeric checks.
        out.ff_config()
        return out

    def ff_config(self) -> ff.FfConfig:
        """The ``FfConfig`` fields of this config; the one it lacks, the loss
        kind, comes from the method's row of :data:`METHOD_TABLE`."""
        known = {**METHOD_TABLE[self.method]._asdict(), **vars(self)}
        fields = dataclasses.fields(ff.FfConfig)
        return ff.FfConfig(**{f.name: known[f.name] for f in fields})

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["layer_dims"] is not None:
            out["layer_dims"] = list(out["layer_dims"])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """Build from a JSON-style mapping; rejects unknown fields and values of
        the wrong type (a bool is not a number, an int is a float)."""
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        hints = typing.get_type_hints(cls)
        unknown = set(data) - set(hints)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            if not _has_type(value, hints[name]):
                raise ConfigError(f"config field {name} has the wrong type: {value!r}")
        return cls(**data)


def _unread_settings(method: Method) -> dict:
    """Each setting ``method`` never reads, with the one value it may hold: the
    row's own ``gamma_mode`` and ``schedule``, else the RunConfig default."""
    names = ["theta"] if not method.linked or method.loss_kind == "entropy" else []
    names += [] if method.layer_local else ["gamma_mode", "schedule"]
    return {name: getattr(method, name, getattr(RunConfig, name)) for name in names}


def _has_type(value, hint) -> bool:
    """Whether ``value`` fits a RunConfig field annotation."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is typing.Union:
        return any(_has_type(value, arg) for arg in args)
    if typing.get_origin(hint) is collections.abc.Sequence:
        return isinstance(value, (list, tuple)) and all(
            _has_type(item, args[0]) for item in value
        )
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def git_describe() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _last_epoch(cfg: RunConfig, depth: int) -> int:
    """A resolved run's last epoch counter: ``epochs`` per stage of the schedule
    for a layer-local method."""
    if not METHOD_TABLE[cfg.method].layer_local:
        return cfg.epochs
    return len(ff.schedule_stages(cfg.schedule, depth)) * cfg.epochs


def _scores(net: MlpNetwork, cfg: RunConfig, ds: Dataset, idx=None) -> np.ndarray:
    """The (n, labels, layers) tensor ``net`` votes on for rows ``idx`` of ``ds`` (all by
    default): a linked method's goodness, or a label head's logits as its one layer.
    Either reads ``ff.SCORE_CHUNK`` float64 rows at a time (:func:`ff.score_rows`)."""
    if METHOD_TABLE[cfg.method].linked:
        return ff.label_goodness_scores(net, ds, idx=idx)
    return baselines.classic_logits(net, ds, idx=idx)[:, :, None]


def _voting_layers(method: Method, depth: int) -> list[int]:
    """The layers a method votes on and logs test rows for."""
    return list(range(depth)) if method.layer_local else [depth - 1]


def _error(scores: np.ndarray, labels, method: Method) -> float:
    """Misclassified fraction of a vote over :func:`_voting_layers` of :func:`_scores`."""
    return ff.voting_error(scores, labels, _voting_layers(method, scores.shape[2]))


def _snapshot(epoch: int, scores: np.ndarray, sample, cfg: RunConfig) -> tuple[list, ...]:
    """The ``errors.csv``, ``entropy.csv`` and test ``history.csv`` rows of one snapshot,
    from the scores of the evaluation ``sample`` (:func:`draw_eval_sample`'s tuple). A
    linked method has three entropy rows and the per-layer test losses of
    :func:`ff.layer_losses` over each sample's true and wrong label; a label head has none."""
    _, labels, wrong = sample
    method = METHOD_TABLE[cfg.method]
    errors = [{"epoch": epoch, "split": "test", "error": _error(scores, labels, method)}]
    if not method.linked:
        return errors, [], []
    positive = ff.linked_goodness(scores, labels)
    negative = ff.linked_goodness(scores, wrong)
    reports = split_entropy_reports(positive, negative)
    entropy = [entropy_row(epoch, s, reports[s]) for s in ("both", "positive", "negative")]
    ff_cfg = cfg.ff_config()
    table = np.vstack([positive, negative])
    polarity = np.concatenate([np.ones(len(positive)), -np.ones(len(negative))])
    layers = _voting_layers(method, table.shape[1])
    stats = ff.EpochStats(table.shape[1], epoch)
    ff.layer_losses(table, polarity, ff_cfg, layers, stats)
    # A backprop stage labels its history rows with the method, as it trains.
    loss_kind = ff_cfg.loss_kind if method.layer_local else cfg.method
    return errors, entropy, stats.rows(loss_kind, layers, split="test")


def run_training(cfg: RunConfig, train_ds: Dataset, test_ds: Dataset) -> dict:
    """Train one configuration and write all artifacts to cfg.output_dir.

    Produces checkpoint.npz, history.csv, entropy.csv (for goodness-based
    methods), errors.csv, config.json, and summary.json. Returns the summary.
    A report the method does not make is removed from the directory
    (:func:`~ffnet.reports.write_csv_reports`). Every file is written after
    training, so a run that fails leaves the directory as it found it.

    A snapshot (:func:`_snapshot`) is taken every ``eval_every`` epochs
    during training and once after it, at the last epoch, from the
    evaluation sample's scores (:func:`_scores`). The final network is
    scored once, over the test split: those scores give the final test
    error, and the last snapshot gathers the evaluation sample's rows from
    them, as ``ffnet eval`` does. Every scoring pass reads
    ``ff.SCORE_CHUNK`` test rows at a time through ``Dataset.rows``.
    """
    cfg = cfg.resolved()
    method = METHOD_TABLE[cfg.method]
    for ds in (train_ds, test_ds):
        _check_input_width(cfg.method, cfg.layer_dims[0], ds.d, f"{ds.name} {ds.split}")
    if cfg.train_subset is not None:
        train_ds = train_ds.subset(cfg.train_subset)
    ff_cfg = cfg.ff_config()
    ff.check_split_size(train_ds.n, "training", ff_cfg.loss_kind)
    ff.check_split_size(test_ds.n, "test", ff_cfg.loss_kind)
    # After the size checks, so that an empty split gets their message.
    if cfg.train_subset is not None and cfg.train_subset > train_ds.n:
        raise ConfigError(
            f"train_subset {cfg.train_subset} exceeds the {train_ds.n} training samples"
        )
    out_dir = Path(cfg.output_dir)
    resolved = cfg.to_dict()

    started = time.monotonic()
    net = init_network(cfg.layer_dims, make_rng(cfg.seed))
    sample = draw_eval_sample(test_ds, cfg.entropy_eval_n, cfg.seed)
    error_rows, entropy_rows, test_rows = [], [], []

    def snapshot(epoch: int, scores: np.ndarray) -> None:
        """Record the snapshot of ``epoch`` from the evaluation sample's scores."""
        errors, entropy, test = _snapshot(epoch, scores, sample, cfg)
        error_rows.extend(errors)
        entropy_rows.extend(entropy)
        test_rows.extend(test)

    total_epochs = _last_epoch(cfg, net.depth)

    def on_epoch(epoch: int, current: MlpNetwork) -> None:
        # The last epoch's snapshot is taken after training, from the final pass.
        if epoch % cfg.eval_every == 0 and epoch < total_epochs:
            snapshot(epoch, _scores(current, cfg, test_ds, sample[0]))

    net, history = method.train(net, train_ds, ff_cfg, on_epoch)
    scores = _scores(net, cfg, test_ds)
    final_error = _error(scores, test_ds.labels, method)
    snapshot(total_epochs, scores[sample[0]])

    wall_time = time.monotonic() - started
    write_json(out_dir / "config.json", resolved)
    save_checkpoint(out_dir / "checkpoint.npz", net, resolved)
    write_csv_reports(out_dir, {
        "history.csv": (HISTORY_FIELDS, history + test_rows),
        "entropy.csv": (entropy_fields(net.depth), entropy_rows) if method.linked else None,
        "errors.csv": (["epoch", "split", "error"], error_rows),
    })
    summary = {
        "final_test_error": final_error,
        "config": resolved,
        "config_hash": config_hash(resolved),
        "wall_time_seconds": wall_time,
        "git_describe": git_describe(),
    }
    write_json(out_dir / "summary.json", summary)
    return summary


def run_from_paths(cfg: RunConfig) -> dict:
    """Load the configured dataset from the cache directory, then train."""
    cfg = cfg.resolved()
    train_ds = load_dataset(cfg.dataset, "train", cfg.data_dir)
    test_ds = load_dataset(cfg.dataset, "test", cfg.data_dir)
    return run_training(cfg, train_ds, test_ds)


def evaluate_checkpoint(
    checkpoint_path,
    out_dir,
    dataset: Optional[str] = None,
    data_dir=None,
    subsets: Optional[Sequence[frozenset]] = None,
) -> dict:
    """Re-evaluate a stored model: test error, subset reports, entropy.

    The checkpoint's config is resolved as a :class:`RunConfig`, so a field it
    lacks takes the default a run would have used, as does a setting its
    method never reads (:func:`_unread_settings`). The final network is
    scored once over the test split, ``ff.SCORE_CHUNK`` rows at a time
    (:func:`_scores`), as ``ffnet train`` scores it; the test error reduces
    those scores. For the goodness methods the subset and marginal reports
    reduce the same goodness tensor, and the entropy report gathers the rows
    of the seeded evaluation sample that the run's snapshots used and reduces
    them as they do (:func:`_snapshot`). A report the method does not make
    (all three for the classic baseline, the marginals for a family without
    the leave-one-out sets) is removed from ``out_dir``
    (:func:`~ffnet.reports.write_csv_reports`). Scores that are not finite
    fail before any report, naming the first layer that gave one, and a
    failed eval writes and removes nothing.

    A config written before ``negatives_per_positive`` and ``classic_normalize``
    were retired still evaluates: the first, which evaluation never read, is
    dropped, and so is the second when false; a network trained with
    ``classic_normalize`` on is an error before the test split is read.
    """
    net, config, stored_hash = load_checkpoint(checkpoint_path)
    config.pop("negatives_per_positive", None)
    if config.pop("classic_normalize", False):
        raise CheckpointError(
            f"checkpoint {checkpoint_path}: trained with classic_normalize, which is retired"
        )
    if dataset is None and "dataset" not in config:
        raise ConfigError("no dataset given and none recorded in the checkpoint")
    # A config without a dataset is resolved for the given one, not for mnist.
    cfg = RunConfig.from_dict({"dataset": dataset, **config})
    if cfg.method in METHOD_TABLE:  # a setting the method never reads cannot change a score
        cfg = dataclasses.replace(cfg, **_unread_settings(METHOD_TABLE[cfg.method]))
    cfg = cfg.resolved()
    method = METHOD_TABLE[cfg.method]
    if subsets is not None:
        if not method.linked:
            raise ConfigError("layer subsets are undefined for the classic baseline")
        subsets = check_subset_family(subsets, net.depth)
    name = dataset or cfg.dataset
    test_ds = load_dataset(name, "test", data_dir or cfg.data_dir)
    _check_input_width(cfg.method, net.input_dim, test_ds.d, f"{name} test")
    ff.check_split_size(test_ds.n, "test", cfg.ff_config().loss_kind)

    out_dir = Path(out_dir)
    scores = _scores(net, cfg, test_ds)
    finite = np.isfinite(scores).all(axis=(0, 1))
    if not finite.all():
        layer = int(np.argmin(finite)) + 1 if method.linked else net.depth
        raise CheckpointError(
            f"checkpoint {checkpoint_path}: layer {layer} gives a non-finite score "
            "on the test split"
        )
    summary = {
        "checkpoint": str(checkpoint_path),
        "dataset": name,
        "method": cfg.method,
        "config_hash": stored_hash,
        "n_test": test_ds.n,
        "test_error": _error(scores, test_ds.labels, method),
    }
    tables = dict.fromkeys(["subsets.csv", "marginals.csv", "entropy_report.csv"])
    if method.linked:
        family = default_subset_family(net.depth) if subsets is None else subsets
        report = subset_errors(scores, test_ds.labels, family)
        tables["subsets.csv"] = subsets_table(report)
        try:
            tables["marginals.csv"] = marginals_table(
                marginal_contributions(report, net.depth)
            )
        except ConfigError:
            pass  # the family lacks the leave-one-out sets
        sample = draw_eval_sample(test_ds, cfg.entropy_eval_n, cfg.seed)
        _, rows, _ = _snapshot(_last_epoch(cfg, net.depth), scores[sample[0]], sample, cfg)
        tables["entropy_report.csv"] = (entropy_fields(net.depth), rows)
    # Every report is computed before the first is written, so a failed eval writes none.
    write_csv_reports(out_dir, tables)
    write_json(out_dir / "eval_summary.json", summary)
    return summary


def run_variants(
    cfg: RunConfig, field: str, values: Sequence, dir_name: str
) -> tuple[list[RunConfig], list[dict]]:
    """One run per ``field`` value, in ``cfg.output_dir / dir_name.format(value)``,
    one after another in the calling process. Every variant is resolved, and
    no two may share a directory, before the first run starts."""
    if not values:
        raise ConfigError(f"no {field} values given")
    base = cfg.resolved()
    configs = []
    owners: dict[str, object] = {}  # output directory -> the value that took it
    for value in values:
        out_dir = str(Path(base.output_dir) / dir_name.format(value))
        if out_dir in owners:
            raise ConfigError(
                f"{field} values {owners[out_dir]!r} and {value!r} share the "
                f"output directory {out_dir}"
            )
        owners[out_dir] = value
        changes = {field: value, "output_dir": out_dir}
        configs.append(dataclasses.replace(base, **changes).resolved())
    return configs, [run_from_paths(c) for c in configs]


def run_sweep(cfg: RunConfig, thetas: Sequence[float]) -> list[dict]:
    """One run per theta; returns and writes the theta/error table."""
    thetas = [float(t) for t in thetas]
    configs, summaries = run_variants(cfg, "theta", thetas, "theta_{:g}")
    rows = [
        {
            "theta": c.theta,
            "method": c.method,
            "dataset": c.dataset,
            "final_test_error": s["final_test_error"],
        }
        for c, s in zip(configs, summaries)
    ]
    write_csv(
        Path(cfg.output_dir) / "sweep.csv",
        ["theta", "method", "dataset", "final_test_error"],
        rows,
    )
    return rows
