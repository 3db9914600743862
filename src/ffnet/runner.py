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
from .checkpoint import config_hash, load_checkpoint, save_checkpoint
from .data import DATASET_DIMS, N_LABELS, Dataset, draw_eval_sample
from .entropy import split_entropy_reports
from .errors import CheckpointError, ConfigError
from .fetch import load_dataset
from .linalg import make_rng
from .nn import MlpNetwork, init_network
from .reports import (
    HISTORY_FIELDS,
    entropy_row,
    write_csv,
    write_entropy_csv,
    write_json,
    write_marginals_csv,
    write_subsets_csv,
)


# A method's row. linked: it scores the goodness of label-linked inputs, else the
# logits of a label head. layer_local: it trains under gamma_mode and schedule (the
# defaults here) and votes on every layer, else it is one backprop stage that votes
# on and logs the last layer. loss_kind is its FfConfig.loss_kind.
Method = collections.namedtuple("Method", "linked layer_local gamma_mode schedule loss_kind")
METHOD_TABLE = {
    "ff": Method(True, True, "none", "layerwise", "sigmoid_goodness"),
    "collab_ff": Method(True, True, "all_other_layers", "alternating", "sigmoid_goodness"),
    "entropy_ff": Method(True, True, "none", "layerwise", "entropy"),
    "bp_pairwise": Method(True, False, "none", "layerwise", "sigmoid_goodness"),
    "bp_classic": Method(False, False, "none", "layerwise", "sigmoid_goodness"),
}
METHODS = tuple(METHOD_TABLE)

DEFAULT_HIDDEN = (500, 500, 500)


def _input_width(method: Method, d: int) -> int:
    """Network input width for ``d``-wide samples: a linked method adds a label."""
    return d + N_LABELS if method.linked else d


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
    negatives_per_positive: int = ff.FfConfig.negatives_per_positive
    classic_normalize: bool = False

    def resolved(self) -> "RunConfig":
        """Fill method-dependent defaults and validate."""
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        out = dataclasses.replace(self)
        method = METHOD_TABLE[self.method]
        if out.gamma_mode is None:
            out.gamma_mode = method.gamma_mode
        if out.schedule is None:
            out.schedule = method.schedule
        _reject_ignored_settings(out)
        d = DATASET_DIMS.get(self.dataset)
        if d is None and out.layer_dims is None:
            # Custom datasets (synthetic, tests) must spell the dims out.
            raise ConfigError(
                f"dataset {self.dataset!r} is not one of {sorted(DATASET_DIMS)}; "
                "pass layer_dims explicitly"
            )
        expected_input = None if d is None else _input_width(method, d)
        if out.layer_dims is None:
            dims = [expected_input, *DEFAULT_HIDDEN]
            if not method.linked:
                dims.append(N_LABELS)
            out.layer_dims = tuple(dims)
        else:
            out.layer_dims = tuple(int(v) for v in out.layer_dims)
            if len(out.layer_dims) < 2 or min(out.layer_dims) <= 0:
                raise ConfigError(
                    "layer_dims needs at least 2 entries, all positive, "
                    f"got {list(out.layer_dims)}"
                )
            if expected_input is not None and out.layer_dims[0] != expected_input:
                raise ConfigError(
                    f"layer_dims[0] must be {expected_input} for "
                    f"{self.method} on {self.dataset}, got {out.layer_dims[0]}"
                )
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


def _reject_ignored_settings(cfg: RunConfig) -> None:
    """Reject a setting that ``cfg.method`` would record but never use."""
    method = METHOD_TABLE[cfg.method]
    if cfg.classic_normalize and method.linked:
        raise ConfigError(f"{cfg.method} ignores classic_normalize; it needs a label head")
    if method.layer_local:
        return
    only = {"gamma_mode": method.gamma_mode, "schedule": method.schedule}
    if not method.linked:
        only["negatives_per_positive"] = ff.FfConfig.negatives_per_positive
    for name, value in only.items():
        if getattr(cfg, name) != value:
            raise ConfigError(
                f"{cfg.method} ignores {name}; it must be {value!r}, "
                f"got {getattr(cfg, name)!r}"
            )


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


def _scores(net: MlpNetwork, cfg: RunConfig, images) -> np.ndarray:
    """What ``net`` scores ``images`` by: the (n, labels, layers) goodness
    tensor of a linked method, or the (n, labels) logits of a label head."""
    if METHOD_TABLE[cfg.method].linked:
        return ff.label_goodness_scores(net, images)
    return baselines.classic_logits(net, images, cfg.classic_normalize)


def _voting_layers(method: Method, depth: int) -> list[int]:
    """The layers a goodness method votes on and logs test rows for."""
    return list(range(depth)) if method.layer_local else [depth - 1]


def _error(scores: np.ndarray, labels, method: Method) -> float:
    """Misclassified fraction under :func:`_scores`: the argmax of the logits
    of a label head, else a goodness vote over :func:`_voting_layers`."""
    if not method.linked:
        return float(np.mean(np.argmax(scores, axis=1) != labels))
    return ff.voting_error(scores, labels, _voting_layers(method, scores.shape[2]))


def _sample_rows(
    epoch: int, scores: np.ndarray, labels, wrong, cfg: RunConfig
) -> tuple[list[dict], list[dict]]:
    """The both/positive/negative entropy rows and the per-layer test history
    rows of one snapshot, from the evaluation sample's goodness tensor and each
    sample's true and wrong label."""
    positive = ff.linked_goodness(scores, labels)
    negative = ff.linked_goodness(scores, wrong)
    reports = split_entropy_reports(positive, negative)
    entropy = [entropy_row(epoch, reports[s]) for s in ("both", "positive", "negative")]
    ff_cfg = cfg.ff_config()
    table = np.vstack([positive, negative])
    polarity = np.concatenate([np.ones(len(positive)), -np.ones(len(negative))])
    method = METHOD_TABLE[cfg.method]
    layers = _voting_layers(method, table.shape[1])
    stats = ff._EpochStats(table.shape[1], epoch)
    for i in layers:
        gamma = ff.compute_gamma(table, i, ff_cfg.gamma_mode)
        loss, _ = ff.descent_loss(table[:, i], gamma, ff_cfg, polarity)
        stats.record(i, loss, table[:, i], polarity)
    # A backprop stage labels its history rows with the method, as it trains.
    loss_kind = ff_cfg.loss_kind if method.layer_local else cfg.method
    return entropy, stats.rows(loss_kind, layers, split="test")


def run_training(cfg: RunConfig, train_ds: Dataset, test_ds: Dataset) -> dict:
    """Train one configuration and write all artifacts to cfg.output_dir.

    Produces checkpoint.npz, history.csv, entropy.csv (for goodness-based
    methods), errors.csv, config.json, and summary.json. Returns the summary.

    A snapshot (an ``errors.csv`` row and, for the goodness methods, three
    ``entropy.csv`` rows and the test rows of ``history.csv``) is taken every
    ``eval_every`` epochs during training and once after it, at the last
    epoch, from the evaluation sample's scores (:func:`_scores`: goodness
    tensor or classic logits). The final network is scored once, over the
    test split: those scores give the final test error, and the last
    snapshot gathers the evaluation sample's rows from them, as ``ffnet
    eval`` does.
    """
    cfg = cfg.resolved()
    method = METHOD_TABLE[cfg.method]
    expected = _input_width(method, train_ds.d)
    if cfg.layer_dims[0] != expected:
        raise ConfigError(
            f"layer_dims[0]={cfg.layer_dims[0]} but {cfg.method} on this data "
            f"needs {expected}-dim inputs"
        )
    if cfg.train_subset is not None:
        train_ds = train_ds.subset(cfg.train_subset)
    ff_cfg = cfg.ff_config()
    ff.check_train_size(train_ds.n, ff_cfg.loss_kind)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = cfg.to_dict()
    write_json(out_dir / "config.json", resolved)

    started = time.monotonic()
    net = init_network(cfg.layer_dims, make_rng(cfg.seed))
    idx, eval_labels, eval_wrong = draw_eval_sample(test_ds, cfg.entropy_eval_n, cfg.seed)
    eval_images = test_ds.images[idx]
    entropy_rows: list[dict] = []
    error_rows: list[dict] = []
    test_rows: list[dict] = []

    def snapshot(epoch: int, scores: np.ndarray) -> None:
        """Record the snapshot of ``epoch`` from the evaluation sample's scores."""
        if method.linked:
            entropy, test = _sample_rows(epoch, scores, eval_labels, eval_wrong, cfg)
            entropy_rows.extend(entropy)
            test_rows.extend(test)
        error = _error(scores, eval_labels, method)
        error_rows.append({"epoch": epoch, "split": "test", "error": error})

    total_epochs = _last_epoch(cfg, net.depth)

    def on_epoch(epoch: int, current: MlpNetwork) -> None:
        # The last epoch's snapshot is taken after training, from the final pass.
        if epoch % cfg.eval_every == 0 and epoch < total_epochs:
            snapshot(epoch, _scores(current, cfg, eval_images))

    # No trainer is stored in the table: each is looked up in its module at call
    # time, so a patched module attribute (a benchmark span) is the one called.
    if method.layer_local:
        net, history = ff.train(net, train_ds, ff_cfg, on_epoch)
    elif method.linked:
        net, history = baselines.train_pairwise(net, train_ds, ff_cfg, on_epoch)
    else:
        net, history = baselines.train_classic(
            net, train_ds, ff_cfg, cfg.classic_normalize, on_epoch
        )
    scores = _scores(net, cfg, test_ds.images)
    final_error = _error(scores, test_ds.labels, method)
    snapshot(total_epochs, scores[idx])

    wall_time = time.monotonic() - started
    save_checkpoint(out_dir / "checkpoint.npz", net, resolved)
    write_csv(out_dir / "history.csv", HISTORY_FIELDS, history + test_rows)
    if method.linked:
        write_entropy_csv(out_dir / "entropy.csv", entropy_rows, net.depth)
    write_csv(out_dir / "errors.csv", ["epoch", "split", "error"], error_rows)
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
    lacks takes the default a run would have used. The final network is
    scored once over the test split (:func:`_scores`), as ``ffnet train``
    scores it; the test error reduces those scores. For the goodness methods
    the subset and marginal reports reduce the same goodness tensor, and the
    entropy report gathers the rows of the seeded evaluation sample that the
    run's snapshots used and reduces them as they do (:func:`_sample_rows`).
    """
    from .analysis import (
        default_subset_family, marginal_contributions, subset_errors, subset_label,
    )

    net, config, stored_hash = load_checkpoint(checkpoint_path)
    if dataset is None and "dataset" not in config:
        raise ConfigError("no dataset given and none recorded in the checkpoint")
    # A config without a dataset is resolved for the given one, not for mnist.
    cfg = RunConfig.from_dict({"dataset": dataset, **config}).resolved()
    method = METHOD_TABLE[cfg.method]
    if subsets is not None and not method.linked:
        raise ConfigError("layer subsets are undefined for the classic baseline")
    for subset in subsets or ():
        deepest = max(subset, default=0) + 1
        if deepest > net.depth:
            raise ConfigError(
                f"subset {subset_label(subset)} names layer {deepest}; "
                f"the network has {net.depth} layers"
            )
    name = dataset or cfg.dataset
    test_ds = load_dataset(name, "test", data_dir or cfg.data_dir)
    expected = _input_width(method, test_ds.d)
    if net.input_dim != expected:
        raise CheckpointError(
            f"checkpoint expects {net.input_dim}-dim inputs but {name} "
            f"{cfg.method} inputs are {expected}-dim"
        )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    scores = _scores(net, cfg, test_ds.images)
    summary = {
        "checkpoint": str(checkpoint_path),
        "dataset": name,
        "method": cfg.method,
        "config_hash": stored_hash,
        "n_test": test_ds.n,
        "test_error": _error(scores, test_ds.labels, method),
    }
    if method.linked:
        family = list(subsets) if subsets is not None else default_subset_family(net.depth)
        report = subset_errors(scores, test_ds.labels, family)
        write_subsets_csv(out_dir / "subsets.csv", report)
        try:
            marginals = marginal_contributions(report, net.depth)
            write_marginals_csv(out_dir / "marginals.csv", marginals)
        except ConfigError:
            # The family lacks the leave-one-out sets; a marginals.csv left by
            # an earlier eval would not match this subsets.csv.
            (out_dir / "marginals.csv").unlink(missing_ok=True)
        idx, labels, wrong = draw_eval_sample(test_ds, cfg.entropy_eval_n, cfg.seed)
        epoch = _last_epoch(cfg, net.depth)
        rows, _ = _sample_rows(epoch, scores[idx], labels, wrong, cfg)
        write_entropy_csv(out_dir / "entropy_report.csv", rows, net.depth)
    write_json(out_dir / "eval_summary.json", summary)
    return summary


def run_variants(
    cfg: RunConfig, field: str, values: Sequence, dir_name: str, parallel: int = 0
) -> tuple[list[RunConfig], list[dict]]:
    """One run per ``field`` value, in ``cfg.output_dir / dir_name.format(value)``,
    on up to ``parallel`` worker processes but never more than there are
    values; one worker runs in-process. Every variant is resolved, and no two
    may share a directory, before the first run starts."""
    if parallel < 0:
        raise ConfigError(f"parallel must be a non-negative worker count, got {parallel}")
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
    workers = min(parallel, len(configs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return configs, list(pool.map(run_from_paths, configs))
    return configs, [run_from_paths(c) for c in configs]


def run_sweep(cfg: RunConfig, thetas: Sequence[float], parallel: int = 0) -> list[dict]:
    """One run per theta; returns and writes the theta/error table."""
    if not thetas:
        raise ConfigError("sweep needs at least one theta value")
    thetas = [float(t) for t in thetas]
    configs, summaries = run_variants(cfg, "theta", thetas, "theta_{:g}", parallel)
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
