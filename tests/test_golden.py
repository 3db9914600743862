"""Golden artifacts: every file a run or an evaluation writes, against stored values.

``tests/golden/*.npz`` hold the final weights and the CSV outputs of a
2-epoch run of each method on the tiny MNIST stand-in, plus ``ffnet eval``
on the ``ff`` checkpoint. ``tests/golden/make_golden.py`` wrote them. Every
value must match exactly, except two sets of float columns that may move
in the last bit with the rows BLAS groups into one matrix product: the
test-split rows of ``history.csv`` and all of ``entropy_report.csv``.
Regenerate the goldens only for a change meant to move the numbers.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np
import pytest

from ffnet.checkpoint import load_checkpoint
from ffnet.fetch import load_dataset
from ffnet.runner import RunConfig, evaluate_checkpoint, run_training

GOLDEN_DIR = Path(__file__).parent / "golden"
METHODS = ("ff", "collab_ff", "entropy_ff", "bp_pairwise", "bp_classic")
RUN_FILES = ("history.csv", "entropy.csv", "errors.csv")
EVAL_FILES = ("subsets.csv", "marginals.csv", "entropy_report.csv")
KEY_COLUMNS = {"epoch", "layer", "loss_kind", "split", "subset", "n"}
RTOL = 1e-12


def _run_config(method: str, data_dir, out_dir) -> RunConfig:
    dims = (784, 24, 16, 10) if method == "bp_classic" else (794, 24, 16, 12)
    return RunConfig(
        dataset="mnist",
        method=method,
        epochs=2,
        batch_size=40,
        theta=5.0,
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


def _assert_csv_matches(name: str, got_text: str, want_text: str) -> None:
    got = list(csv.DictReader(io.StringIO(got_text)))
    want = list(csv.DictReader(io.StringIO(want_text)))
    assert len(got) == len(want), f"{name}: {len(got)} rows, golden has {len(want)}"
    for got_row, want_row in zip(got, want):
        assert got_row.keys() == want_row.keys(), name
        loose = name == "entropy_report.csv" or (
            name == "history.csv" and want_row["split"] == "test"
        )
        for key, want_value in want_row.items():
            if loose and key not in KEY_COLUMNS:
                np.testing.assert_allclose(
                    float(got_row[key]), float(want_value), rtol=RTOL,
                    err_msg=f"{name} {key} in {want_row}",
                )
            else:
                assert got_row[key] == want_value, f"{name} {key} in {want_row}"


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
            _assert_csv_matches(key, str(got[key]), str(want))
        else:
            assert got[key].shape == want.shape, f"{run} {key}"
            assert got[key].tobytes() == want.tobytes(), f"{run} {key} differs"
