"""Run orchestration shared by the CLI and the test harness.

A RunConfig pins everything a training run needs; the resolved form (all
defaults expanded) is persisted next to the artifacts so any run directory
can be reproduced bit for bit with the same code.
"""

from __future__ import annotations

import dataclasses
import subprocess
import time
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

METHODS = ("ff", "collab_ff", "entropy_ff", "bp_pairwise", "bp_classic")
LINKED_METHODS = ("ff", "collab_ff", "entropy_ff", "bp_pairwise")

DEFAULT_HIDDEN = (500, 500, 500)

# Per-method defaults applied when the field is left unset.
_METHOD_GAMMA = {"ff": "none", "collab_ff": "all_other_layers", "entropy_ff": "none"}
_METHOD_SCHEDULE = {"ff": "layerwise", "collab_ff": "alternating", "entropy_ff": "layerwise"}


@dataclass
class RunConfig:
    dataset: str = "mnist"
    method: str = "ff"
    gamma_mode: Optional[str] = None
    schedule: Optional[str] = None
    theta: float = 10.0
    epochs: int = 150
    batch_size: int = 200
    learning_rate: float = 0.001
    seed: int = 0
    layer_dims: Optional[Sequence[int]] = None
    output_dir: str = "runs/run"
    entropy_eval_n: int = 2000
    eval_every: int = 10
    data_dir: Optional[str] = None
    train_subset: Optional[int] = None
    negatives_per_positive: int = 1
    classic_normalize: bool = False

    def resolved(self) -> "RunConfig":
        """Fill method-dependent defaults and validate."""
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        out = dataclasses.replace(self)
        if out.gamma_mode is None:
            out.gamma_mode = _METHOD_GAMMA.get(self.method, "none")
        if out.schedule is None:
            out.schedule = _METHOD_SCHEDULE.get(self.method, "layerwise")
        d = DATASET_DIMS.get(self.dataset)
        if d is None and out.layer_dims is None:
            # Custom datasets (synthetic, tests) must spell the dims out.
            raise ConfigError(
                f"dataset {self.dataset!r} is not one of {sorted(DATASET_DIMS)}; "
                "pass layer_dims explicitly"
            )
        expected_input = None
        if d is not None:
            expected_input = d + N_LABELS if self.method in LINKED_METHODS else d
        if out.layer_dims is None:
            dims = [expected_input, *DEFAULT_HIDDEN]
            if self.method == "bp_classic":
                dims.append(N_LABELS)
            out.layer_dims = tuple(dims)
        else:
            out.layer_dims = tuple(int(v) for v in out.layer_dims)
            if expected_input is not None and out.layer_dims[0] != expected_input:
                raise ConfigError(
                    f"layer_dims[0] must be {expected_input} for "
                    f"{self.method} on {self.dataset}, got {out.layer_dims[0]}"
                )
            if self.method == "bp_classic" and out.layer_dims[-1] != N_LABELS:
                raise ConfigError(
                    f"bp_classic needs a {N_LABELS}-wide head, got {out.layer_dims[-1]}"
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
        return ff.FfConfig(
            theta=self.theta,
            gamma_mode=self.gamma_mode or "none",
            schedule=self.schedule or "layerwise",
            loss_kind="entropy" if self.method == "entropy_ff" else "sigmoid_goodness",
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=self.seed,
            negatives_per_positive=self.negatives_per_positive,
        )

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        if out["layer_dims"] is not None:
            out["layer_dims"] = list(out["layer_dims"])
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


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


def _voting_layers(method: str, depth: int) -> list[int]:
    """Layers whose goodness votes: the last alone for the pairwise baseline."""
    return [depth - 1] if method == "bp_pairwise" else list(range(depth))


def _test_history_rows(
    positive: np.ndarray, negative: np.ndarray, cfg: RunConfig, epoch: int
) -> list[dict]:
    """Per-layer test loss and goodness from the (n, depth) goodness tables of the
    evaluation sample linked with its true and its wrong labels."""
    ff_cfg = cfg.ff_config()
    table = np.vstack([positive, negative])
    polarity = np.concatenate([np.ones(len(positive)), -np.ones(len(negative))])
    pairwise = cfg.method == "bp_pairwise"
    layers = _voting_layers(cfg.method, table.shape[1])
    stats = ff._EpochStats(table.shape[1])
    for i in layers:
        gamma = ff.compute_gamma(table, i, "none" if pairwise else ff_cfg.gamma_mode)
        loss, _ = ff.descent_loss(table[:, i], gamma, ff_cfg, polarity)
        stats.record(i, loss, table[:, i], polarity)
    loss_kind = "bp_pairwise" if pairwise else ff_cfg.loss_kind
    return stats.rows(epoch, loss_kind, layers, split="test")


def run_training(cfg: RunConfig, train_ds: Dataset, test_ds: Dataset) -> dict:
    """Train one configuration and write all artifacts to cfg.output_dir.

    Produces checkpoint.npz, history.csv, entropy.csv (for goodness-based
    methods), errors.csv, config.json, and summary.json. Returns the summary.
    """
    cfg = cfg.resolved()
    expected = train_ds.d + N_LABELS if cfg.method in LINKED_METHODS else train_ds.d
    if cfg.layer_dims[0] != expected:
        raise ConfigError(
            f"layer_dims[0]={cfg.layer_dims[0]} but {cfg.method} on this data "
            f"needs {expected}-dim inputs"
        )
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    resolved = cfg.to_dict()
    write_json(out_dir / "config.json", resolved)

    if cfg.train_subset is not None:
        train_ds = train_ds.subset(cfg.train_subset)

    started = time.monotonic()
    net = init_network(cfg.layer_dims, make_rng(cfg.seed))
    idx, eval_labels, eval_wrong = draw_eval_sample(test_ds, cfg.entropy_eval_n, cfg.seed)
    eval_ds = Dataset(test_ds.images[idx], eval_labels, test_ds.name, test_ds.split)
    entropy_rows: list[dict] = []
    error_rows: list[dict] = []
    test_rows: list[dict] = []
    track_entropy = cfg.method != "bp_classic"

    def snapshot(epoch: int, current: MlpNetwork) -> None:
        if track_entropy:
            scores = ff.label_goodness_scores(current, eval_ds.images)
            positive = ff.linked_goodness(scores, eval_labels)
            negative = ff.linked_goodness(scores, eval_wrong)
            reports = split_entropy_reports(positive, negative)
            for split in ("both", "positive", "negative"):
                entropy_rows.append(entropy_row(epoch, reports[split]))
            test_rows.extend(_test_history_rows(positive, negative, cfg, epoch))
            layers = _voting_layers(cfg.method, current.depth)
            error = ff.voting_error(scores, eval_labels, layers)
        else:
            error = baselines.classic_test_error(
                current, eval_ds, cfg.classic_normalize
            )
        error_rows.append({"epoch": epoch, "split": "test", "error": error})

    def on_epoch(epoch: int, current: MlpNetwork) -> None:
        if epoch % cfg.eval_every == 0:
            snapshot(epoch, current)

    ff_cfg = cfg.ff_config()
    total_epochs = cfg.epochs
    if cfg.method in ("ff", "collab_ff", "entropy_ff"):
        net, history = ff.train(net, train_ds, ff_cfg, on_epoch)
        if ff_cfg.schedule == "layerwise":
            total_epochs = net.depth * cfg.epochs
    elif cfg.method == "bp_pairwise":
        net, history = baselines.train_pairwise(net, train_ds, ff_cfg, on_epoch)
    else:
        net, history = baselines.train_classic(
            net, train_ds, ff_cfg, cfg.classic_normalize, on_epoch
        )
    if track_entropy:
        final_error = ff.test_error(net, test_ds, _voting_layers(cfg.method, net.depth))
    else:
        final_error = baselines.classic_test_error(net, test_ds, cfg.classic_normalize)

    if not entropy_rows or entropy_rows[-1]["epoch"] != total_epochs:
        snapshot(total_epochs, net)

    wall_time = time.monotonic() - started
    save_checkpoint(out_dir / "checkpoint.npz", net, resolved)
    write_csv(out_dir / "history.csv", HISTORY_FIELDS, history + test_rows)
    if track_entropy:
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

    For goodness-voting methods all three are reductions of one goodness
    tensor over the test split; the entropy tables gather the rows of the
    seeded evaluation sample that the run's snapshots used.
    """
    from .analysis import default_subset_family, marginal_contributions, subset_errors

    net, config, stored_hash = load_checkpoint(checkpoint_path)
    method = config.get("method", "ff")
    name = dataset or config.get("dataset")
    if name is None:
        raise ConfigError("no dataset given and none recorded in the checkpoint")
    test_ds = load_dataset(name, "test", data_dir or config.get("data_dir"))
    expected = test_ds.d + N_LABELS if method in LINKED_METHODS else test_ds.d
    if net.input_dim != expected:
        raise CheckpointError(
            f"checkpoint expects {net.input_dim}-dim inputs but {name} "
            f"{method} inputs are {expected}-dim"
        )

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "checkpoint": str(checkpoint_path),
        "dataset": name,
        "method": method,
        "config_hash": stored_hash,
        "n_test": test_ds.n,
    }
    if method == "bp_classic":
        if subsets is not None:
            raise ConfigError("layer subsets are undefined for the classic baseline")
        summary["test_error"] = baselines.classic_test_error(
            net, test_ds, config.get("classic_normalize", False)
        )
    else:
        scores = ff.label_goodness_scores(net, test_ds.images)
        layers = _voting_layers(method, net.depth)
        summary["test_error"] = ff.voting_error(scores, test_ds.labels, layers)
        family = list(subsets) if subsets is not None else default_subset_family(net.depth)
        report = subset_errors(scores, test_ds.labels, family)
        write_subsets_csv(out_dir / "subsets.csv", report)
        try:
            marginals = marginal_contributions(report, net.depth)
            write_marginals_csv(out_dir / "marginals.csv", marginals)
        except ConfigError:
            pass  # requested family lacks the leave-one-out sets
        idx, labels, wrong = draw_eval_sample(
            test_ds, config.get("entropy_eval_n", 2000), config.get("seed", 0)
        )
        sample = scores[idx]
        reports = split_entropy_reports(
            ff.linked_goodness(sample, labels), ff.linked_goodness(sample, wrong)
        )
        rows = [
            entropy_row(config.get("epochs", 0), reports[split])
            for split in ("both", "positive", "negative")
        ]
        write_entropy_csv(out_dir / "entropy_report.csv", rows, net.depth)
    write_json(out_dir / "eval_summary.json", summary)
    return summary


def run_sweep(cfg: RunConfig, thetas: Sequence[float], parallel: int = 0) -> list[dict]:
    """One run per theta; returns and writes the theta/error table."""
    if not thetas:
        raise ConfigError("sweep needs at least one theta value")
    cfg = cfg.resolved()
    base_dir = Path(cfg.output_dir)
    configs = [
        dataclasses.replace(
            cfg, theta=float(theta), output_dir=str(base_dir / f"theta_{theta:g}")
        )
        for theta in thetas
    ]
    if parallel > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=parallel) as pool:
            summaries = list(pool.map(run_from_paths, configs))
    else:
        summaries = [run_from_paths(c) for c in configs]
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
        base_dir / "sweep.csv",
        ["theta", "method", "dataset", "final_test_error"],
        rows,
    )
    return rows
