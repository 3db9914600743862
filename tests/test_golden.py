"""Golden artifacts: every file a run or an evaluation writes, against stored values.

``tests/golden/*.npz`` hold the final weights and the CSV outputs of a
2-epoch run of each method on the tiny MNIST stand-in, plus ``ffnet eval``
on the ``ff`` checkpoint. ``tests/golden/make_golden.py`` wrote them, from
training on linked matrices. Every value must match exactly, except:

* ``RTOL`` (1e-12) on the float columns of the goodness tensor's reductions:
  the test-split rows of ``history.csv``, all of ``entropy_report.csv`` and
  all of ``entropy.csv``. They move with the rows BLAS groups into one
  matrix product, and with the order in which ``ff.label_goodness_scores``
  adds the pixel product, the label's weight row and the bias.
* ``FACTORED_RTOL`` (1e-10) on the final weights and biases and the float
  columns of the train-split rows of ``history.csv`` of the label-factored
  trainers (``ff``, ``collab_ff``, ``entropy_ff`` and the pairwise baseline
  ``bp_pairwise``). They sum layer 1's pre-activation as
  ``x @ W_pix + (W_lab[y] + b)`` and its weight gradient over each sample's
  summed linked rows, not over the linked product, so every update rounds
  differently.
* ``FACTORED_RTOL`` also on the ``loss`` column of ``entropy_ff``'s
  test-split rows only. That loss is a difference of two entropies that
  cancels to a few 1e-5, which magnifies the weights' last-bit drift to
  about 1e-12 relative; its other test-split columns keep ``RTOL``.

Errors, subsets and marginals stay exact, and ``bp_classic`` stays exact.

``tests/golden/trainers.npz`` fingerprints the trainers themselves: the
final weights and biases, the train-history values (nan included) and the
``on_epoch`` epochs of 24 tiny ``ff.train`` runs (2 schedules x 3 gamma modes
x 2 loss kinds x 1 or 2 negatives per positive), 2 pairwise baseline runs (1
or 2 negatives per positive) and 2 classic baseline runs (normalization off
and on), all compared byte for byte.

Regenerate the goldens only for a change meant to move the numbers, and
say in CHANGES.md which arrays moved. A refactor never regenerates any of
them; ``trainers.npz`` and ``bp_classic`` hold it to the last bit.
"""

from __future__ import annotations

import csv
import io
import itertools
from pathlib import Path

import numpy as np
import pytest
from conftest import theta_for

from ffnet import baselines, ff
from ffnet.checkpoint import load_checkpoint
from ffnet.fetch import load_dataset
from ffnet.linalg import make_rng
from ffnet.nn import init_network
from ffnet.runner import RunConfig, evaluate_checkpoint, run_training
from ffnet.synth import synthetic_dataset

GOLDEN_DIR = Path(__file__).parent / "golden"
METHODS = ("ff", "collab_ff", "entropy_ff", "bp_pairwise", "bp_classic")
RUN_FILES = ("history.csv", "entropy.csv", "errors.csv")
EVAL_FILES = ("subsets.csv", "marginals.csv", "entropy_report.csv")
KEY_COLUMNS = {"epoch", "layer", "loss_kind", "split", "subset", "n"}
RTOL = 1e-12
FACTORED_RTOL = 1e-10
FACTORED_RUNS = ("ff", "collab_ff", "entropy_ff", "bp_pairwise")


def _run_config(method: str, data_dir, out_dir) -> RunConfig:
    dims = (784, 24, 16, 10) if method == "bp_classic" else (794, 24, 16, 12)
    return RunConfig(
        dataset="mnist",
        method=method,
        epochs=2,
        batch_size=40,
        theta=theta_for(method, 5.0),
        seed=3,
        layer_dims=dims,
        train_subset=200,
        entropy_eval_n=60,
        eval_every=1,
        data_dir=str(data_dir),
        output_dir=str(out_dir),
    )


def collect_artifacts(data_dir, work) -> dict[str, dict[str, np.ndarray]]:
    """Train every method, evaluate the ff checkpoint; arrays keyed by run."""
    train = load_dataset("mnist", "train", data_dir)
    test = load_dataset("mnist", "test", data_dir)
    out = {}
    for method in METHODS:
        run_dir = Path(work) / method
        run_training(_run_config(method, data_dir, run_dir), train, test)
        net, _, _ = load_checkpoint(run_dir / "checkpoint.npz")
        arrays = {}
        for i, lay in enumerate(net.layers):
            arrays[f"weights_{i}"] = lay.weights
            arrays[f"biases_{i}"] = lay.biases
        for name in RUN_FILES:
            if (run_dir / name).exists():
                arrays[name] = np.array((run_dir / name).read_text())
        out[method] = arrays
    eval_dir = Path(work) / "eval"
    evaluate_checkpoint(
        Path(work) / "ff" / "checkpoint.npz", eval_dir, dataset="mnist", data_dir=data_dir
    )
    out["eval"] = {name: np.array((eval_dir / name).read_text()) for name in EVAL_FILES}
    return out


def trainer_fingerprint() -> dict[str, np.ndarray]:
    """Final parameters, train-history values and callback epochs of every
    tiny trainer run: ``ff.train`` keyed ``schedule.gamma_mode.loss_kind.k``,
    ``baselines.train_pairwise`` keyed ``bp_pairwise.k`` and
    ``baselines.train_classic`` keyed ``bp_classic.<normalize>``, each with
    an ``.<array>`` suffix.

    41 samples at batch 20 leave a trailing one-sample batch, which the
    entropy objective skips and the other losses train on.
    """
    train_ds = synthetic_dataset(41, d=12, seed=11)
    out = {}

    def record(run, train, net, cfg):
        epochs = []
        net, history = train(
            net, train_ds, cfg, on_epoch=lambda epoch, _: epochs.append(epoch)
        )
        for i, lay in enumerate(net.layers):
            out[f"{run}.weights_{i}"] = lay.weights
            out[f"{run}.biases_{i}"] = lay.biases
        out[f"{run}.history"] = np.array(
            [
                [r["epoch"], r["layer"], r["loss"], r["mean_goodness_pos"],
                 r["mean_goodness_neg"]]
                for r in history
            ],
            dtype=np.float64,
        )
        out[f"{run}.epochs"] = np.array(epochs, dtype=np.int64)

    for schedule, gamma_mode, loss_kind, k in itertools.product(
        ff.SCHEDULES, ff.GAMMA_MODES, ff.LOSS_KINDS, (1, 2)
    ):
        cfg = ff.FfConfig(
            theta=3.0, gamma_mode=gamma_mode, schedule=schedule, loss_kind=loss_kind,
            epochs=2, batch_size=20, seed=5, negatives_per_positive=k,
        )
        record(
            f"{schedule}.{gamma_mode}.{loss_kind}.{k}", ff.train,
            init_network([22, 8, 6, 5], make_rng(4)), cfg,
        )
    for k in (1, 2):
        cfg = ff.FfConfig(
            theta=3.0, epochs=2, batch_size=20, seed=5, negatives_per_positive=k
        )
        record(
            f"bp_pairwise.{k}", baselines.train_pairwise,
            init_network([22, 8, 6, 5], make_rng(4)), cfg,
        )
    for normalize in (False, True):
        cfg = ff.FfConfig(epochs=2, batch_size=20, seed=5, classic_normalize=normalize)
        record(
            f"bp_classic.{normalize}", baselines.train_classic,
            init_network([12, 8, 6, 10], make_rng(4)), cfg,
        )
    return out


def _assert_csv_matches(name: str, got_text: str, want_text: str, run: str) -> None:
    got = list(csv.DictReader(io.StringIO(got_text)))
    want = list(csv.DictReader(io.StringIO(want_text)))
    assert len(got) == len(want), f"{name}: {len(got)} rows, golden has {len(want)}"
    for got_row, want_row in zip(got, want):
        assert got_row.keys() == want_row.keys(), name
        for key, want_value in want_row.items():
            rtol = _float_rtol(name, run, want_row.get("split"), key)
            if rtol is not None:
                np.testing.assert_allclose(
                    float(got_row[key]), float(want_value), rtol=rtol,
                    err_msg=f"{name} {key} in {want_row}",
                )
            else:
                assert got_row[key] == want_value, f"{name} {key} in {want_row}"


def _float_rtol(name: str, run: str, split, key: str):
    """Relative tolerance of one CSV value; None means it must match exactly."""
    if key in KEY_COLUMNS:
        return None
    if name == "history.csv" and run in FACTORED_RUNS:
        if split == "train" or (key == "loss" and run == "entropy_ff"):
            return FACTORED_RTOL
    if name in ("entropy_report.csv", "entropy.csv") or (
        name == "history.csv" and split == "test"
    ):
        return RTOL
    return None


@pytest.fixture(scope="module")
def artifacts(data_dir, tmp_path_factory):
    return collect_artifacts(data_dir, tmp_path_factory.mktemp("golden_runs"))


@pytest.mark.parametrize("run", [*METHODS, "eval"])
def test_artifacts_match_golden(artifacts, run):
    with np.load(GOLDEN_DIR / f"{run}.npz") as stored:
        golden = {key: stored[key] for key in stored.files}
    got = artifacts[run]
    assert sorted(got) == sorted(golden)
    for key, want in golden.items():
        if key.endswith(".csv"):
            _assert_csv_matches(key, str(got[key]), str(want), run)
        elif run in FACTORED_RUNS:
            np.testing.assert_allclose(
                got[key], want, rtol=FACTORED_RTOL, atol=0.0, err_msg=f"{run} {key}"
            )
        else:
            assert got[key].shape == want.shape, f"{run} {key}"
            assert got[key].tobytes() == want.tobytes(), f"{run} {key} differs"


def test_trainers_match_golden_bitwise():
    with np.load(GOLDEN_DIR / "trainers.npz") as stored:
        golden = {key: stored[key] for key in stored.files}
    got = trainer_fingerprint()
    assert sorted(got) == sorted(golden)
    for key, want in golden.items():
        assert got[key].dtype == want.dtype, key
        assert got[key].shape == want.shape, key
        assert got[key].tobytes() == want.tobytes(), f"{key} differs"
