"""Set-up, timed operations and output checks of the four benchmark workloads.

Every workload is a closed loop of one caller that waits for each operation
to finish: training and evaluation are batch jobs, not arriving requests.
Inputs are synthetic MNIST-shaped data (``synth.synthetic_pair`` at d=784)
made from the workload seed, written as MNIST-named IDX ``.gz`` files and
read back through ``fetch.load_dataset``, so every workload trains and
evaluates on exactly what ``ffnet train``/``ffnet eval`` would load. The net
is 794-500-500-500 (784-500-500-500-10 for the classic baseline), batch 200.

Why each workload exists:

* ``train_collab`` -- the paper's method and the training hot path (batch
  linking, 3-layer forward, gamma, loss, local gradients, Adam). It calls no
  inference, analysis or entropy code, so an evaluation-path change must
  leave it unchanged.
* ``train_ff_snapshots`` -- the ``ffnet train`` path: layerwise schedule
  (partial forwards) with a snapshot (test error, test history rows,
  entropy reports) after every layer-epoch; snapshots dominate its time.
* ``eval_checkpoint`` -- the read-only use of the network: ``ff.predict``
  (inference throughput) and ``runner.evaluate_checkpoint`` (``ffnet eval``:
  IDX loading, subsets, entropy) on a checkpoint written in set-up.
* ``train_backprop`` -- the only callers of ``full_backprop_grad`` and
  ``l2_row_normalize_vjp``: the pairwise and classic baselines.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ffnet import baselines, ff, runner, synth
from ffnet.checkpoint import load_checkpoint, save_checkpoint
from ffnet.data import N_LABELS, write_idx
from ffnet.fetch import load_dataset
from ffnet.linalg import make_rng
from ffnet.nn import init_network

PIXELS = 784
BATCH = 200
EPOCHS = 1
# Test samples whose predictions are checked against the reference forward.
REFERENCE_N = 200


@dataclass(frozen=True)
class Sizes:
    n_train: int
    n_test: int
    hidden: tuple = (500, 500, 500)
    entropy_eval_n: int = 2000


# Sizes are chosen so one operation takes 0.7-2.5 s on one core: long enough
# to time well, short enough for several operations in one run.
SIZES = {
    "train_collab": Sizes(n_train=2000, n_test=200),
    "train_ff_snapshots": Sizes(n_train=1000, n_test=500),
    "eval_checkpoint": Sizes(n_train=200, n_test=1000, entropy_eval_n=500),
    "train_backprop": Sizes(n_train=2000, n_test=200),
}
TINY = {
    name: Sizes(n_train=400, n_test=100, hidden=(32, 32, 32), entropy_eval_n=60)
    for name in SIZES
}


@dataclass
class Fixture:
    """What set-up leaves for the timed operations."""

    sizes: Sizes
    seed: int
    work: Path
    data_dir: Path
    train: object
    test: object
    checkpoint: Path
    net: object
    classic_net: object
    reference_preds: np.ndarray | None = None


@dataclass
class OpResult:
    """Timings and outputs of one closed-loop operation."""

    samples_s: float  # wall time of the call(s) behind samples_per_s
    job_s: float  # wall time of the workload's user-facing job
    total_s: float
    outputs: dict


def _write_split(mnist_dir: Path, prefix: str, ds) -> None:
    n = ds.n
    pixels = np.rint(ds.images * 255.0).astype(np.uint8).reshape(n, 28, 28)
    write_idx(mnist_dir / f"{prefix}-images-idx3-ubyte.gz", pixels)
    write_idx(mnist_dir / f"{prefix}-labels-idx1-ubyte.gz", ds.labels.astype(np.uint8))


def set_up(workload: str, sizes: Sizes, seed: int, work: Path) -> tuple[float, Fixture]:
    """Make data, write and load IDX files, init the net, write a checkpoint.

    Returns the wall time of all of it and the fixture.
    """
    started = time.perf_counter()
    data_dir = work / "data"
    mnist_dir = data_dir / "mnist"
    mnist_dir.mkdir(parents=True, exist_ok=True)
    train, test = synth.synthetic_pair(sizes.n_train, sizes.n_test, d=PIXELS, seed=seed)
    _write_split(mnist_dir, "train", train)
    _write_split(mnist_dir, "t10k", test)
    train = load_dataset("mnist", "train", data_dir)
    test = load_dataset("mnist", "test", data_dir)
    dims = (PIXELS + N_LABELS, *sizes.hidden)
    config = {
        "dataset": "mnist",
        "method": "ff",
        "epochs": EPOCHS,
        "seed": seed,
        "entropy_eval_n": sizes.entropy_eval_n,
        "layer_dims": list(dims),
    }
    checkpoint = work / "checkpoint" / "checkpoint.npz"
    save_checkpoint(checkpoint, init_network(dims, make_rng(seed)), config)
    net, _, _ = load_checkpoint(checkpoint)
    classic_net = None
    if workload == "train_backprop":
        classic_net = init_network((PIXELS, *sizes.hidden, N_LABELS), make_rng(seed))
    elapsed = time.perf_counter() - started
    return elapsed, Fixture(
        sizes, seed, work, data_dir, train, test, checkpoint, net, classic_net
    )


def _run_config(fx: Fixture, method: str, **extra) -> runner.RunConfig:
    dims = (PIXELS + N_LABELS, *fx.sizes.hidden)
    if method == "bp_classic":
        dims = (PIXELS, *fx.sizes.hidden, N_LABELS)
    return runner.RunConfig(
        dataset="mnist",
        method=method,
        epochs=EPOCHS,
        batch_size=BATCH,
        seed=fx.seed,
        layer_dims=dims,
        entropy_eval_n=fx.sizes.entropy_eval_n,
        **extra,
    ).resolved()


# -- timed operations --------------------------------------------------------


def op_train_collab(fx: Fixture) -> OpResult:
    cfg = _run_config(fx, "collab_ff").ff_config()
    net = fx.net.copy()
    started = time.perf_counter()
    net, history = ff.train(net, fx.train, cfg)
    elapsed = time.perf_counter() - started
    return OpResult(elapsed, elapsed, elapsed, {"nets": [net], "history": history})


def op_train_ff_snapshots(fx: Fixture) -> OpResult:
    out_dir = fx.work / "run"
    cfg = _run_config(fx, "ff", eval_every=1, output_dir=str(out_dir))
    started = time.perf_counter()
    summary = runner.run_training(cfg, fx.train, fx.test)
    elapsed = time.perf_counter() - started
    net, _, _ = load_checkpoint(out_dir / "checkpoint.npz")
    outputs = {
        "nets": [net],
        "history": _read_csv(out_dir / "history.csv"),
        "entropy": _read_csv(out_dir / "entropy.csv"),
        "error": summary["final_test_error"],
    }
    return OpResult(elapsed, elapsed, elapsed, outputs)


def op_eval_checkpoint(fx: Fixture) -> OpResult:
    out_dir = fx.work / "eval"
    started = time.perf_counter()
    preds = ff.predict(fx.net, fx.test.images)
    predicted = time.perf_counter()
    summary = runner.evaluate_checkpoint(
        fx.checkpoint, out_dir, dataset="mnist", data_dir=fx.data_dir
    )
    finished = time.perf_counter()
    outputs = {
        "preds": preds,
        "error": summary["test_error"],
        "subsets": _read_csv(out_dir / "subsets.csv"),
        "entropy": _read_csv(out_dir / "entropy_report.csv"),
    }
    return OpResult(predicted - started, finished - predicted, finished - started, outputs)


def op_train_backprop(fx: Fixture) -> OpResult:
    pairwise = fx.net.copy()
    classic = fx.classic_net.copy()
    started = time.perf_counter()
    pairwise, hist_p = baselines.train_pairwise(
        pairwise, fx.train, _run_config(fx, "bp_pairwise").ff_config()
    )
    classic, hist_c = baselines.train_classic(
        classic, fx.train, _run_config(fx, "bp_classic").ff_config()
    )
    elapsed = time.perf_counter() - started
    return OpResult(
        elapsed, elapsed, elapsed, {"nets": [pairwise, classic], "history": hist_p + hist_c}
    )


OPS = {
    "train_collab": op_train_collab,
    "train_ff_snapshots": op_train_ff_snapshots,
    "eval_checkpoint": op_eval_checkpoint,
    "train_backprop": op_train_backprop,
}


def samples_per_op(workload: str, sizes: Sizes) -> int:
    """Samples behind samples_per_s: consumed by the trainers' batch loops,
    or classified by ``ff.predict``."""
    depth = len(sizes.hidden)
    return {
        "train_collab": sizes.n_train * EPOCHS,
        "train_ff_snapshots": sizes.n_train * EPOCHS * depth,  # one loop per layer
        "eval_checkpoint": sizes.n_test,
        "train_backprop": 2 * sizes.n_train * EPOCHS,  # pairwise, then classic
    }[workload]


# -- output checks -----------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def reference_predictions(net, images: np.ndarray) -> np.ndarray:
    """Goodness voting written out with plain NumPy, independent of ``ffnet``:
    link each label, ReLU layers with L2 row normalisation between them, sum
    squared activities over all layers, take the first best label."""
    scores = np.zeros((images.shape[0], N_LABELS))
    for y in range(N_LABELS):
        onehot = np.zeros((images.shape[0], N_LABELS))
        onehot[:, y] = 1.0
        carry = np.hstack([images, onehot])
        for lay in net.layers:
            act = np.maximum(carry @ lay.weights + lay.biases, 0.0)
            scores[:, y] += np.sum(act * act, axis=1)
            carry = act / (np.linalg.norm(act, axis=1, keepdims=True) + 1e-8)
    return np.argmax(scores, axis=1)


def _check_entropy_rows(rows: list[dict], problems: list[str]) -> None:
    for row in rows:
        within = [float(v) for k, v in row.items() if k.startswith("within_layer_")]
        overall, across = float(row["overall"]), float(row["across_layers"])
        if not abs(overall - (across + sum(within) / len(within))) <= 1e-9:
            problems.append(
                f"entropy {row['split']} epoch {row['epoch']}: overall {overall!r} "
                f"!= across_layers + mean(within_layer)"
            )


def check(workload: str, fx: Fixture, out: dict) -> list[str]:
    """Problems with one operation's outputs; empty when they are correct."""
    problems: list[str] = []
    for net in out.get("nets", []):
        for i, lay in enumerate(net.layers):
            if not (np.all(np.isfinite(lay.weights)) and np.all(np.isfinite(lay.biases))):
                problems.append(f"layer {i + 1} has non-finite parameters")
    for row in out.get("history", []):
        if not math.isfinite(float(row["loss"])):
            problems.append(f"non-finite loss in history row {row}")
    if "entropy" in out:
        if not out["entropy"]:
            problems.append("no entropy rows written")
        _check_entropy_rows(out["entropy"], problems)
    if "error" in out and not 0.0 <= out["error"] <= 1.0:
        problems.append(f"test error {out['error']!r} outside [0, 1]")
    if workload == "eval_checkpoint":
        preds = out["preds"]
        predict_error = float(np.mean(preds != fx.test.labels))
        full_set = "+".join(str(i + 1) for i in range(fx.net.depth))
        subset_error = [float(r["error"]) for r in out["subsets"] if r["subset"] == full_set]
        if subset_error != [out["error"]] or predict_error != out["error"]:
            problems.append(
                f"errors disagree: evaluate_checkpoint {out['error']!r}, "
                f"predict {predict_error!r}, subsets.csv {full_set} {subset_error!r}"
            )
        ref = fx.reference_preds
        if ref is not None and not np.array_equal(preds[: ref.shape[0]], ref):
            problems.append("predictions differ from the reference forward pass")
    return problems


def same_outputs(a: dict, b: dict) -> bool:
    """Bitwise equality of two operations' outputs on the same inputs."""
    if a.keys() != b.keys():
        return False
    for key in a:
        if key == "nets":
            pairs = [
                (x, y)
                for na, nb in zip(a[key], b[key])
                for la, lb in zip(na.layers, nb.layers)
                for x, y in ((la.weights, lb.weights), (la.biases, lb.biases))
            ]
            if len(a[key]) != len(b[key]) or any(
                x.shape != y.shape or x.tobytes() != y.tobytes() for x, y in pairs
            ):
                return False
        elif key == "preds":
            if a[key].tobytes() != b[key].tobytes():
                return False
        elif repr(a[key]) != repr(b[key]):  # repr: exact floats, and nan == nan
            return False
    return True


# Predictions that check the benchmark measures what it claims. They are
# printed with the traced run and never tuned to pass.
def predictions(workload: str, sizes: Sizes, per_layer: dict) -> list[tuple[str, bool]]:
    def value(name):
        return per_layer[name]["value"]

    out = []
    if workload == "train_collab":
        for name in (
            "ff.label_goodness_scores.calls",
            "analysis.evaluate_subsets.ms",
            "analysis.goodness_cache.self_ms",
            "entropy.goodness_entropy_reports.ms",
            "entropy.entropy_decompose.self_ms",
        ):
            out.append((f"{name} == 0 (got {value(name)})", value(name) == 0))
    if workload == "eval_checkpoint":
        for name in (
            "nn.layer_local_grad.calls",
            "nn.apply_adam_update.L1.self_ms",
            "nn.full_backprop_grad.self_ms",
        ):
            out.append((f"{name} == 0 (got {value(name)})", value(name) == 0))
        n = sizes.n_test
        expected = 30 + 2 * min(n, sizes.entropy_eval_n) / n
        got = value("nn.forward_pass.rows_per_sample")
        out.append(
            (
                f"nn.forward_pass.rows_per_sample ~= {expected:.3f} (got {got:.3f})",
                abs(got - expected) <= 0.01 * expected,
            )
        )
    return out
