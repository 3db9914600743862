import csv
import json
import os
import re
import stat
import subprocess

import numpy as np
import pytest
from conftest import theta_for, traced_peak

from ffnet import runner
from ffnet.checkpoint import load_checkpoint, save_checkpoint
from ffnet.data import Dataset
from ffnet.errors import CheckpointError, ConfigError, DomainError
from ffnet.fetch import load_dataset
from ffnet.ff import FfConfig, train
from ffnet.linalg import l2_row_normalize, make_rng
from ffnet.nn import init_network, l2_row_normalize_vjp
from ffnet.runner import (
    METHOD_TABLE,
    METHODS,
    RunConfig,
    evaluate_checkpoint,
    run_from_paths,
    run_training,
)
from ffnet.synth import synthetic_dataset, synthetic_pair


@pytest.fixture(scope="module")
def tiny_data():
    return synthetic_pair(300, 120, d=24, seed=2)


class TestRunConfig:
    def test_method_defaults_resolve(self):
        cfg = RunConfig(dataset="mnist", method="collab_ff").resolved()
        assert cfg.gamma_mode == "all_other_layers"
        assert cfg.schedule == "alternating"
        assert cfg.layer_dims == (794, 500, 500, 500)

    def test_classic_gets_label_head(self):
        cfg = RunConfig(dataset="mnist", method="bp_classic").resolved()
        assert cfg.layer_dims == (784, 500, 500, 500, 10)

    def test_wrong_input_dim_rejected(self):
        with pytest.raises(ConfigError, match="794"):
            RunConfig(dataset="mnist", method="ff", layer_dims=[784, 20]).resolved()

    def test_custom_dataset_requires_dims(self):
        with pytest.raises(ConfigError, match="layer_dims"):
            RunConfig(dataset="synthetic", method="ff").resolved()

    def test_unknown_config_fields_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            RunConfig.from_dict({"dataset": "mnist", "bogus": 1})

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="method"):
            RunConfig(dataset="mnist", method="sgd").resolved()

    @pytest.mark.parametrize(
        ("method", "field", "value"),
        [
            ("bp_pairwise", "gamma_mode", "all_other_layers"),
            ("bp_classic", "gamma_mode", "predecessors_only"),
            ("bp_pairwise", "schedule", "alternating"),
            ("bp_classic", "schedule", "alternating"),
            ("entropy_ff", "theta", 5.0),
            ("bp_classic", "theta", 5.0),
        ],
    )
    def test_settings_the_method_ignores_rejected(self, method, field, value):
        cfg = RunConfig(dataset="mnist", method=method, **{field: value})
        with pytest.raises(ConfigError, match=f"^{method} ignores {field};"):
            cfg.resolved()

    @pytest.mark.parametrize("method", METHODS)
    def test_settings_the_method_uses_accepted(self, method):
        setting = {
            "bp_classic": {"schedule": "layerwise", "gamma_mode": "none"},
            "bp_pairwise": {"theta": 5.0},
        }.get(method, {"schedule": "alternating", "gamma_mode": "predecessors_only"})
        RunConfig(dataset="mnist", method=method, **setting).resolved()


    @pytest.mark.parametrize("method", METHODS)
    def test_ff_config_copies_the_shared_settings(self, method):
        cfg = RunConfig(
            dataset="mnist", method=method, theta=theta_for(method, 3.5), epochs=4,
            batch_size=7, learning_rate=0.02, seed=11,
        ).resolved()
        ff_cfg = cfg.ff_config()
        for name in ("theta", "gamma_mode", "schedule", "epochs", "batch_size",
                     "learning_rate", "seed"):
            assert getattr(ff_cfg, name) == getattr(cfg, name), name
        entropy = method == "entropy_ff"
        assert ff_cfg.loss_kind == ("entropy" if entropy else "sigmoid_goodness")


def _artifacts(out) -> dict:
    """What a run writes that its settings could change: the bytes of its CSV
    files and of its network's arrays."""
    files = {name: (out / name).read_bytes() for name in ("history.csv", "errors.csv")}
    if (out / "entropy.csv").exists():
        files["entropy.csv"] = (out / "entropy.csv").read_bytes()
    net = load_checkpoint(out / "checkpoint.npz")[0]
    for i, layer in enumerate(net.layers):
        files[f"layer {i}"] = layer.weights.tobytes() + layer.biases.tobytes()
    return files


class TestEverySettingIsReadOrRejected:
    """A run's setting either changes what the run writes or is rejected."""

    # A value of each setting that differs from the base run's.
    CHANGED = {
        "theta": 4.0,
        "gamma_mode": "predecessors_only",
        "schedule": None,  # the schedule that is not the method's own
        "epochs": 3,
        "batch_size": 30,
        "learning_rate": 0.01,
        "seed": 2,
        "entropy_eval_n": 40,
        "eval_every": 1,
        "train_subset": 200,
    }

    # Two epochs that learn enough for every setting to show, with a snapshot
    # only after training.
    BASE = {"epochs": 2, "batch_size": 50, "learning_rate": 0.03, "seed": 1,
            "entropy_eval_n": 60}

    def _run(self, tiny_data, out, method, **changes) -> None:
        dims = [24, 12, 10] if method == "bp_classic" else [34, 12, 8]
        cfg = RunConfig(
            dataset="synthetic", method=method, layer_dims=dims, output_dir=str(out),
            **{**self.BASE, **changes},
        )
        run_training(cfg, *tiny_data)

    @pytest.fixture(scope="class")
    def base_runs(self, tiny_data, tmp_path_factory):
        runs = {}
        for method in METHODS:
            out = tmp_path_factory.mktemp(method)
            self._run(tiny_data, out, method)
            runs[method] = _artifacts(out)
        return runs

    @pytest.mark.parametrize("field", list(CHANGED))
    @pytest.mark.parametrize("method", METHODS)
    def test_setting_changes_the_run_or_is_rejected(
        self, tiny_data, tmp_path, base_runs, method, field
    ):
        value = self.CHANGED[field]
        if field == "schedule":
            own = METHOD_TABLE[method].schedule
            value = "layerwise" if own == "alternating" else "alternating"
        out = tmp_path / "run"
        try:
            self._run(tiny_data, out, method, **{field: value})
        except ConfigError as exc:
            assert re.match(f"^{method} ignores {field};", str(exc)), exc
            assert not out.exists()
        else:
            changed = _artifacts(out)
            assert [name for name in changed if changed[name] != base_runs[method].get(name)]


class TestGammaModeTrainingMatrix:
    """Every gamma mode trains under both schedules; offsets help."""

    def test_predecessors_only_layerwise_uses_frozen_predecessors(self, tiny_data):
        train_ds, test_ds = tiny_data
        cfg = FfConfig(
            theta=4.0, epochs=3, batch_size=50, seed=1,
            schedule="layerwise", gamma_mode="predecessors_only",
        )
        net = init_network([34, 20, 14, 10], make_rng(1))
        net, history = train(net, train_ds, cfg)
        assert len(history) == 9  # 3 layers x 3 epochs
        assert all(np.isfinite(r["loss"]) for r in history)

    def test_predecessors_only_alternating(self, tiny_data):
        train_ds, _ = tiny_data
        cfg = FfConfig(
            theta=4.0, epochs=3, batch_size=50, seed=1,
            schedule="alternating", gamma_mode="predecessors_only",
        )
        net = init_network([34, 20, 14, 10], make_rng(1))
        net, history = train(net, train_ds, cfg)
        assert len(history) == 9

    def test_offsets_improve_layerwise_training(self):
        """Collaboration ordering: gamma > predecessors-only > none."""
        train_ds, test_ds = synthetic_pair(600, 200, d=48, seed=3, noise=0.2)
        from ffnet.ff import test_error as voting_error

        errors = {}
        for mode in ("none", "predecessors_only", "all_other_layers"):
            cfg = FfConfig(
                theta=5.0, epochs=6, batch_size=50, seed=1,
                schedule="layerwise", gamma_mode=mode,
            )
            net = init_network([58, 40, 30, 20], make_rng(1))
            net, _ = train(net, train_ds, cfg)
            errors[mode] = voting_error(net, test_ds)
        assert errors["all_other_layers"] < errors["none"]
        assert errors["predecessors_only"] < errors["none"]


class TestRunTrainingMethods:
    @pytest.mark.parametrize("method", ["entropy_ff", "bp_pairwise"])
    def test_remaining_methods_produce_artifacts(self, tiny_data, tmp_path, method):
        train_ds, test_ds = tiny_data
        cfg = RunConfig(
            dataset="synthetic", method=method, theta=theta_for(method, 4.0), epochs=2,
            batch_size=50, seed=1, layer_dims=[34, 20, 14, 10],
            output_dir=str(tmp_path / method), entropy_eval_n=60, eval_every=1,
        )
        summary = run_training(cfg, train_ds, test_ds)
        assert 0.0 <= summary["final_test_error"] <= 1.0
        out = tmp_path / method
        assert (out / "entropy.csv").exists()
        history = (out / "history.csv").read_text().splitlines()
        kinds = {line.split(",")[2] for line in history[1:]}
        expected_kind = "entropy" if method == "entropy_ff" else "bp_pairwise"
        assert kinds == {expected_kind}

    def test_pairwise_history_only_logs_last_layer(self, tiny_data, tmp_path):
        train_ds, test_ds = tiny_data
        cfg = RunConfig(
            dataset="synthetic", method="bp_pairwise", theta=4.0, epochs=2,
            batch_size=50, seed=1, layer_dims=[34, 20, 14, 10],
            output_dir=str(tmp_path / "pw"), entropy_eval_n=60, eval_every=2,
        )
        run_training(cfg, train_ds, test_ds)
        history = (tmp_path / "pw" / "history.csv").read_text().splitlines()
        layers = {line.split(",")[1] for line in history[1:]}
        assert layers == {"3"}

    @pytest.mark.parametrize("eval_every", [1, 3])
    @pytest.mark.parametrize("method", METHODS)
    def test_errors_csv_has_each_epoch_once(self, tiny_data, tmp_path, method, eval_every):
        """Snapshots in the loop and the final one never repeat an epoch."""
        train_ds, test_ds = tiny_data
        dims = [24, 12, 8, 10] if method == "bp_classic" else [34, 12, 8, 6]
        cfg = RunConfig(
            dataset="synthetic", method=method, theta=theta_for(method, 4.0), epochs=2,
            batch_size=50, seed=1, layer_dims=dims, output_dir=str(tmp_path),
            entropy_eval_n=60, eval_every=eval_every,
        )
        run_training(cfg, train_ds, test_ds)
        with open(tmp_path / "errors.csv", newline="") as f:
            epochs = [int(row["epoch"]) for row in csv.DictReader(f)]
        assert epochs and all(a < b for a, b in zip(epochs, epochs[1:])), epochs

    def test_a_run_removes_the_reports_its_method_does_not_write(self, tiny_data, tmp_path):
        """A classic run into the directory of a goodness run leaves the files a
        classic run into an empty directory leaves: no earlier entropy.csv."""
        train_ds, test_ds = tiny_data

        def run(method, out):
            dims = [24, 12, 10] if method == "bp_classic" else [34, 12, 8]
            cfg = RunConfig(
                dataset="synthetic", method=method, epochs=1, batch_size=50, seed=1,
                layer_dims=dims, output_dir=str(out), entropy_eval_n=60,
            )
            run_training(cfg, train_ds, test_ds)
            return sorted(path.name for path in out.iterdir())

        assert "entropy.csv" in run("ff", tmp_path / "reused")
        assert run("bp_classic", tmp_path / "reused") == run("bp_classic", tmp_path / "fresh")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_failed_run_leaves_an_earlier_run_as_it_was(self, tiny_data, tmp_path):
        """A run that diverges in the directory of an earlier run writes no file:
        every file there, config.json included, keeps the earlier run's bytes."""
        splits = tiny_data[0].subset(120), tiny_data[1].subset(60)
        base = dict(dataset="synthetic", method="ff", epochs=1, batch_size=50,
                    layer_dims=[34, 12, 8], output_dir=str(tmp_path), entropy_eval_n=60)
        run_training(RunConfig(**base, seed=1), *splits)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert "config.json" in before
        diverging = RunConfig(**base, seed=2, learning_rate=1e300)
        with pytest.raises(FloatingPointError, match="^non-finite loss at layer 1 in epoch 1;"):
            run_training(diverging, *splits)
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_dimension_mismatch_with_data(self, tiny_data, tmp_path):
        train_ds, test_ds = tiny_data
        cfg = RunConfig(
            dataset="synthetic", method="ff", layer_dims=[99, 10],
            output_dir=str(tmp_path / "bad"), epochs=1,
        )
        message = r"^layer_dims\[0\] must be 34 for ff on synthetic train, got 99$"
        with pytest.raises(ConfigError, match=message):
            run_training(cfg, train_ds, test_ds)

    def test_train_subset_larger_than_the_split_leaves_no_run_directory(
        self, tiny_data, tmp_path
    ):
        """A run never trains on fewer samples than its recorded train_subset."""
        train_ds, test_ds = tiny_data
        out = tmp_path / "run"
        cfg = RunConfig(
            dataset="synthetic", method="ff", layer_dims=[34, 6], epochs=1,
            train_subset=8, output_dir=str(out),
        )
        with pytest.raises(ConfigError, match=r"^train_subset 8 exceeds the 7 training samples$"):
            run_training(cfg, train_ds.subset(7), test_ds)
        assert not out.exists()


class TestPixelStorageIsInvisible:
    @pytest.mark.parametrize("method", METHODS)
    def test_idx_split_trains_like_its_float_copy(self, data_dir, tmp_path, method):
        """A run on uint8 IDX pixels writes the bytes a run on the float64
        ``images`` of the same splits writes."""
        loaded = [load_dataset("mnist", split, data_dir) for split in ("train", "test")]
        floats = [Dataset(ds.images, ds.labels, ds.name, ds.split) for ds in loaded]
        assert loaded[0].pixels.dtype == np.uint8 and floats[0].pixels.dtype == np.float64
        dims = [784, 16, 10] if method == "bp_classic" else [794, 16, 12]
        cfg = RunConfig(
            dataset="mnist", method=method, theta=theta_for(method, 4.0), epochs=2,
            batch_size=50, seed=3, layer_dims=dims, output_dir=str(tmp_path),
            entropy_eval_n=40, eval_every=1,
        )
        names = ["checkpoint.npz", "history.csv", "errors.csv"]
        if METHOD_TABLE[method].linked:
            names.append("entropy.csv")
        written = []
        for train_ds, test_ds in (loaded, floats):
            run_training(cfg, train_ds, test_ds)
            written.append([(tmp_path / name).read_bytes() for name in names])
        assert written[0] == written[1]


class TestEntropyTestSize:
    """Every method needs 1 test sample, and under the entropy objective a
    snapshot needs 2; a smaller test split fails before any file is written."""

    MESSAGE = r"^the entropy objective needs 2 test samples, got 1$"
    EMPTY = r"^evaluation needs 1 test sample, got 0$"
    # (method, test samples, error)
    CASES = [("entropy_ff", 1, MESSAGE), ("ff", 0, EMPTY), ("bp_classic", 0, EMPTY)]

    def test_run_training_writes_no_config(self, tiny_data, tmp_path):
        train_ds, test_ds = tiny_data
        for method, n_test, message in self.CASES:
            out = tmp_path / method
            cfg = RunConfig(
                dataset="synthetic", method=method, epochs=1, batch_size=50,
                layer_dims=[24, 6, 10] if method == "bp_classic" else [34, 6],
                eval_every=1, output_dir=str(out),
            )
            with pytest.raises(ConfigError, match=message):
                run_training(cfg, train_ds.subset(7), test_ds.subset(n_test))
            assert not (out / "config.json").exists()

    def test_evaluate_checkpoint_writes_no_report(self, tmp_path, monkeypatch):
        for method, n_test, message in self.CASES:
            test_ds = synthetic_dataset(n_test, d=784, seed=4, split="test", name="mnist")
            monkeypatch.setattr(runner, "load_dataset", lambda name, split, data_dir: test_ds)
            checkpoint = tmp_path / f"{method}.npz"
            dims = [784, 6, 10] if method == "bp_classic" else [794, 6, 5]
            config = {"dataset": "mnist", "method": method, "epochs": 1, "layer_dims": dims}
            save_checkpoint(checkpoint, init_network(dims, make_rng(0)), config)
            with pytest.raises(ConfigError, match=message):
                evaluate_checkpoint(checkpoint, tmp_path / "eval")
            assert not (tmp_path / "eval").exists()


class TestEvaluateCheckpointChecksFirst:
    """A bad subset request fails before the test split is read, and a test
    split of the wrong width before any file is written."""

    @staticmethod
    def _checkpoint(tmp_path):
        path = tmp_path / "checkpoint.npz"
        dims = [794, 6, 5]
        config = {"dataset": "mnist", "method": "ff", "epochs": 1, "layer_dims": dims}
        save_checkpoint(path, init_network(dims, make_rng(0)), config)
        return path

    @pytest.mark.parametrize(
        ("subsets", "message"),
        [
            ([], "no subsets requested"),
            ([frozenset()], "a requested subset names no layer"),
            ([frozenset({-1})], "subset 0 names layer 0; the network has 2 layers"),
            ([frozenset({0, 2})], "subset 1+3 names layer 3; the network has 2 layers"),
            ([frozenset({0, 1}), frozenset({1, 0})], "subset 1+2 is requested twice"),
            ([[0, 0, 1], frozenset({0, 1})], "subset 1+2 is requested twice"),
        ],
        ids=["none", "empty", "negative", "too_deep", "repeated", "a_member_is_a_set"],
    )
    def test_bad_subsets_fail_before_the_test_split_is_read(
        self, tmp_path, monkeypatch, subsets, message
    ):
        def read(name, split, data_dir):
            raise AssertionError(f"read the {split} split")

        monkeypatch.setattr(runner, "load_dataset", read)
        checkpoint = self._checkpoint(tmp_path)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            evaluate_checkpoint(checkpoint, tmp_path / "eval", subsets=subsets)
        assert not (tmp_path / "eval").exists()

    def test_test_split_of_another_width_is_a_config_error(self, tmp_path, monkeypatch):
        test_ds = synthetic_dataset(20, d=3072, seed=4, split="test", name="synthetic")
        monkeypatch.setattr(runner, "load_dataset", lambda name, split, data_dir: test_ds)
        message = r"^layer_dims\[0\] must be 3082 for ff on synthetic test, got 794$"
        checkpoint = self._checkpoint(tmp_path)
        with pytest.raises(ConfigError, match=message):
            evaluate_checkpoint(checkpoint, tmp_path / "eval", dataset="synthetic")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_report_that_fails_leaves_no_file(self, tmp_path, monkeypatch):
        """Finite but huge first-layer weights score as infinite goodness: the
        eval fails on the scores, naming the layer, and writes no report."""
        test_ds = synthetic_dataset(40, d=784, seed=4, split="test", name="mnist")
        monkeypatch.setattr(runner, "load_dataset", lambda name, split, data_dir: test_ds)
        checkpoint = tmp_path / "checkpoint.npz"
        dims = [794, 6, 5]
        net = init_network(dims, make_rng(0))
        net.layers[0].weights *= 1e160
        config = {"dataset": "mnist", "method": "ff", "epochs": 1, "layer_dims": dims,
                  "entropy_eval_n": 20}
        save_checkpoint(checkpoint, net, config)
        message = (f"checkpoint {checkpoint}: layer 1 gives a non-finite score "
                   "on the test split")
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            evaluate_checkpoint(checkpoint, tmp_path / "eval")
        assert not (tmp_path / "eval").exists()

    def test_a_report_that_fails_after_the_others_leaves_no_file(self, tmp_path, monkeypatch):
        """The subset and marginal reports are computed before the entropy report,
        and none is written when the entropy report fails."""
        test_ds = synthetic_dataset(40, d=784, seed=4, split="test", name="mnist")
        monkeypatch.setattr(runner, "load_dataset", lambda name, split, data_dir: test_ds)

        def fail(positive, negative):
            raise DomainError("entropy report failed")

        monkeypatch.setattr(runner, "split_entropy_reports", fail)
        with pytest.raises(DomainError, match="^entropy report failed$"):
            evaluate_checkpoint(self._checkpoint(tmp_path), tmp_path / "eval")
        assert not (tmp_path / "eval").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        ("method", "scaled", "named"),
        [("ff", [0], 1), ("ff", [1], 2), ("ff", [2], 3), ("ff", [1, 2], 2),
         ("bp_classic", [0, 1], 3)],
        ids=["ff_layer1", "ff_layer2", "ff_layer3", "ff_layers2_3", "bp_classic_head"],
    )
    def test_scores_fail_at_the_first_non_finite_layer(
        self, tmp_path, monkeypatch, method, scaled, named
    ):
        """A goodness method names the first layer whose goodness overflows,
        though the layers above it overflow too; the classic head's logits are
        the one score of its network, so it names the head."""
        test_ds = synthetic_dataset(40, d=784, seed=4, split="test", name="mnist")
        monkeypatch.setattr(runner, "load_dataset", lambda name, split, data_dir: test_ds)
        dims = [794, 6, 5, 4] if METHOD_TABLE[method].linked else [784, 6, 5, 10]
        net = init_network(dims, make_rng(0))
        for index in scaled:
            net.layers[index].weights *= 1e160
        checkpoint = tmp_path / "checkpoint.npz"
        save_checkpoint(checkpoint, net, {"dataset": "mnist", "method": method, "epochs": 1,
                                          "layer_dims": dims, "entropy_eval_n": 20})
        message = (f"checkpoint {checkpoint}: layer {named} gives a non-finite score "
                   "on the test split")
        with pytest.raises(CheckpointError, match=f"^{re.escape(message)}$"):
            evaluate_checkpoint(checkpoint, tmp_path / "eval")
        assert not (tmp_path / "eval").exists()


class TestRetiredSettingsInCheckpoints:
    """A checkpoint written while ``negatives_per_positive`` and
    ``classic_normalize`` were settings records both; evaluation drops them."""

    @pytest.mark.parametrize("method", METHODS)
    def test_stored_retired_settings_change_no_report(self, tmp_path, monkeypatch, method):
        test_ds = synthetic_dataset(40, d=784, seed=4, split="test", name="mnist")
        monkeypatch.setattr(runner, "load_dataset", lambda name, split, data_dir: test_ds)
        dims = [794, 6, 5] if METHOD_TABLE[method].linked else [784, 6, 10]
        net = init_network(dims, make_rng(0))
        config = {"dataset": "mnist", "method": method, "epochs": 1, "layer_dims": dims,
                  "entropy_eval_n": 20}
        retired = {"negatives_per_positive": 2, "classic_normalize": False}
        written = []
        for name, stored in (("current", config), ("old", {**config, **retired})):
            checkpoint = tmp_path / f"{name}.npz"
            save_checkpoint(checkpoint, net, stored)
            out = tmp_path / f"eval_{name}"
            summary = evaluate_checkpoint(checkpoint, out)
            del summary["checkpoint"], summary["config_hash"]
            reports = {path.name: path.read_bytes() for path in out.iterdir()}
            del reports["eval_summary.json"]
            written.append((summary, reports))
        assert written[0] == written[1]
        assert written[0][0]["method"] == method


def _read_rows(path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestFinalNetworkScoredOnce:
    """The final network is scored once, over the test split; the last
    snapshot and the final test error both reduce that one score array
    (the goodness tensor, or the classic baseline's logits)."""

    @pytest.mark.parametrize("eval_every", [1, 3])
    @pytest.mark.parametrize("method", METHODS)
    def test_one_scoring_pass_per_snapshot(
        self, tiny_data, tmp_path, monkeypatch, method, eval_every
    ):
        train_ds, test_ds = tiny_data
        module, name = (
            (runner.baselines, "classic_logits") if method == "bp_classic"
            else (runner.ff, "label_goodness_scores")
        )
        score = getattr(module, name)
        scored_rows = []

        def spy(net, ds, *args, idx=None, **kwargs):
            scored_rows.append(ds.n if idx is None else len(idx))
            return score(net, ds, *args, idx=idx, **kwargs)

        monkeypatch.setattr(module, name, spy)
        dims = [24, 12, 8, 10] if method == "bp_classic" else [34, 12, 8, 6]
        cfg = RunConfig(
            dataset="synthetic", method=method, theta=theta_for(method, 4.0), epochs=2,
            batch_size=50, seed=1, layer_dims=dims,
            output_dir=str(tmp_path), entropy_eval_n=60, eval_every=eval_every,
        )
        run_training(cfg, train_ds, test_ds)
        total = 3 * 2 if method in ("ff", "entropy_ff") else 2  # layerwise: depth x epochs
        snapshots = sorted(set(range(eval_every, total + 1, eval_every)) | {total})
        errors = _read_rows(tmp_path / "errors.csv")
        assert [int(row["epoch"]) for row in errors] == snapshots
        # Snapshots during training score the evaluation sample; the final
        # network is scored once, over the whole test split.
        assert scored_rows == [60] * (len(snapshots) - 1) + [test_ds.n]

    @staticmethod
    def _run_and_eval(data_dir, tmp_path, method, schedule=None):
        """A 2-epoch run of a 3-layer net on the tiny MNIST stand-in, then
        ``ffnet eval`` of its checkpoint; returns both summaries."""
        run_dir = tmp_path / "run"
        dims = [784, 12, 8, 10] if method == "bp_classic" else [794, 12, 8, 6]
        cfg = RunConfig(
            dataset="mnist", method=method, schedule=schedule,
            theta=theta_for(method, 4.0), epochs=2, batch_size=40, seed=3,
            layer_dims=dims, output_dir=str(run_dir), entropy_eval_n=60, eval_every=1,
            data_dir=str(data_dir), train_subset=120,
        )
        summary = run_from_paths(cfg)
        eval_summary = evaluate_checkpoint(run_dir / "checkpoint.npz", tmp_path / "eval")
        return cfg, summary, eval_summary

    @pytest.mark.parametrize("method", METHODS)
    def test_last_snapshot_matches_eval_of_the_checkpoint(
        self, data_dir, tmp_path, method
    ):
        cfg, summary, eval_summary = self._run_and_eval(data_dir, tmp_path, method)
        assert summary["final_test_error"] == eval_summary["test_error"]
        # The evaluation sample is half the test split, so the rows are gathered.
        assert cfg.entropy_eval_n < eval_summary["n_test"]
        if method == "bp_classic":
            assert not (tmp_path / "eval" / "entropy_report.csv").exists()
            return
        snapshot = _read_rows(tmp_path / "run" / "entropy.csv")[-3:]
        report = _read_rows(tmp_path / "eval" / "entropy_report.csv")
        # Whole rows, epoch included: a layerwise run ends at epoch depth x epochs.
        last_epoch = 3 * 2 if method in ("ff", "entropy_ff") else 2
        assert [row["epoch"] for row in report] == [str(last_epoch)] * 3
        assert snapshot == report

    @pytest.mark.parametrize("drop_schedule", [False, True])
    def test_report_epoch_follows_the_checkpoint_schedule(
        self, data_dir, tmp_path, drop_schedule
    ):
        """The report reads the last epoch from the checkpoint's schedule, or
        from the method's default schedule when the checkpoint names none."""
        method, schedule = ("ff", None) if drop_schedule else ("collab_ff", "layerwise")
        self._run_and_eval(data_dir, tmp_path, method, schedule)
        checkpoint = tmp_path / "run" / "checkpoint.npz"
        if drop_schedule:
            net, config, _ = load_checkpoint(checkpoint)
            del config["schedule"]
            save_checkpoint(checkpoint, net, config)
            evaluate_checkpoint(checkpoint, tmp_path / "eval")
        snapshot = _read_rows(tmp_path / "run" / "entropy.csv")[-3:]
        report = _read_rows(tmp_path / "eval" / "entropy_report.csv")
        assert [row["epoch"] for row in report] == ["6"] * 3
        assert snapshot == report

    def test_checkpoint_without_a_dataset_is_resolved_for_the_given_one(
        self, tmp_path, monkeypatch
    ):
        test_ds = synthetic_dataset(40, d=3072, seed=4, split="test", name="synthetic")
        monkeypatch.setattr(runner, "load_dataset", lambda name, split, data_dir: test_ds)
        checkpoint = tmp_path / "checkpoint.npz"
        dims = [3082, 6, 5]
        config = {"method": "ff", "epochs": 1, "layer_dims": dims, "entropy_eval_n": 20}
        save_checkpoint(checkpoint, init_network(dims, make_rng(0)), config)
        with pytest.raises(ConfigError, match="no dataset given"):
            evaluate_checkpoint(checkpoint, tmp_path / "eval")
        summary = evaluate_checkpoint(checkpoint, tmp_path / "eval", dataset="synthetic")
        assert summary["dataset"] == "synthetic"
        assert summary["n_test"] == 40


class TestScoringReadsChunks:
    """Every split is scored ``ff.SCORE_CHUNK`` rows at a time through
    ``Dataset.rows``: no whole split or evaluation sample is made float64."""

    def test_no_test_read_exceeds_a_chunk(self, tiny_data, tmp_path, monkeypatch):
        from ffnet import analysis, baselines, entropy, ff

        train_ds, test_ds = tiny_data

        def whole_split(ds):
            raise AssertionError(f"the whole {ds.split} split was read as float64")

        rows = Dataset.rows
        test_reads = []

        def counted_rows(ds, idx):
            out = rows(ds, idx)
            if ds is test_ds:
                test_reads.append(out.shape[0])
            return out

        monkeypatch.setattr(Dataset, "images", property(whole_split))
        monkeypatch.setattr(Dataset, "rows", counted_rows)
        monkeypatch.setattr(ff, "SCORE_CHUNK", 16)
        monkeypatch.setattr(runner, "load_dataset", lambda name, split, data_dir: test_ds)
        for method in METHODS:
            out = tmp_path / method
            dims = [24, 12, 10] if method == "bp_classic" else [34, 12, 8]
            cfg = RunConfig(
                dataset="synthetic", method=method, theta=theta_for(method, 4.0), epochs=1,
                batch_size=50, seed=1, layer_dims=dims, output_dir=str(out),
                entropy_eval_n=60, eval_every=1,
            )
            run_training(cfg, train_ds, test_ds)
            evaluate_checkpoint(out / "checkpoint.npz", out / "eval")
        net, head = init_network([34, 12, 8], make_rng(0)), init_network([24, 10], make_rng(0))
        ff.test_error(net, test_ds)
        baselines.classic_test_error(head, test_ds)
        analysis.evaluate_subsets(net, test_ds, [{0}, {1}])
        entropy.goodness_entropy_reports(net, test_ds, 60)
        assert test_reads and max(test_reads) == 16

    @pytest.mark.parametrize("method", ["ff", "bp_classic"])
    def test_memory_does_not_grow_with_the_test_split(self, tmp_path, monkeypatch, method):
        """A run and an eval of its checkpoint on 10,000 uint8 MNIST-shaped
        test rows (7.8 MB, held before tracing) peak under 20 MB; the float64
        copy of those rows alone is 62.7 MB."""
        rng = make_rng(5)
        pixels = rng.integers(0, 256, size=(10_000, 784), dtype=np.uint8)
        labels = rng.integers(0, 10, size=10_000)
        test_ds = Dataset(pixels, labels, "mnist", "test")
        train_ds = Dataset(pixels[:100], labels[:100], "mnist", "train")
        monkeypatch.setattr(runner, "load_dataset", lambda name, split, data_dir: test_ds)
        cfg = RunConfig(
            dataset="mnist", method=method, epochs=1, batch_size=50, seed=1,
            layer_dims=[784, 16, 10] if method == "bp_classic" else [794, 16, 16],
            output_dir=str(tmp_path / "run"), eval_every=1,
        )
        run_peak = traced_peak(lambda: run_training(cfg, train_ds, test_ds))
        eval_peak = traced_peak(
            lambda: evaluate_checkpoint(tmp_path / "run" / "checkpoint.npz", tmp_path / "eval")
        )
        assert run_peak < 20_000_000 and eval_peak < 20_000_000


class TestArtifactModes:
    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask022", "umask027"])
    def test_artifacts_get_the_mode_open_gives(self, tiny_data, tmp_path, umask):
        """Every file a run writes gets the mode of a file ``open()`` makes:
        0o666 less the umask, not the 0o600 of a temp file."""
        train_ds, test_ds = tiny_data
        cfg = RunConfig(
            dataset="synthetic", method="ff", epochs=1, batch_size=50,
            layer_dims=[34, 6], output_dir=str(tmp_path / "run"),
        )
        old = os.umask(umask)
        try:
            run_training(cfg, train_ds, test_ds)
            (tmp_path / "opened").open("w").close()
        finally:
            os.umask(old)
        names = sorted(p.name for p in (tmp_path / "run").iterdir())
        assert names == [
            "checkpoint.npz", "config.json", "entropy.csv", "errors.csv", "history.csv",
            "summary.json",
        ]
        want = stat.S_IMODE((tmp_path / "opened").stat().st_mode)
        assert want == 0o666 & ~umask
        for name in names:
            assert stat.S_IMODE((tmp_path / "run" / name).stat().st_mode) == want, name


class TestNormalizationBackwardEdgeCases:
    def test_zero_row_uses_linear_branch(self):
        grad = np.array([[1.0, 2.0, 3.0]])
        out = l2_row_normalize_vjp(np.zeros((1, 3)), np.zeros((1, 3)), grad, epsilon=1e-8)
        np.testing.assert_allclose(out, grad / 1e-8)

    def test_mixed_zero_and_live_rows(self, rng):
        act = rng.uniform(0.1, 1.0, size=(4, 5))
        act[2] = 0.0
        grad = rng.standard_normal((4, 5))
        out = l2_row_normalize_vjp(act, l2_row_normalize(act), grad)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[2], grad[2] / 1e-8)

    def test_matches_finite_differences_on_live_rows(self, rng):
        from conftest import agreement, fd_grad

        act = rng.uniform(0.1, 1.0, size=(3, 4))
        coeffs = rng.standard_normal((3, 4))

        def scalar():
            return float(np.sum(coeffs * l2_row_normalize(act)))

        analytic = l2_row_normalize_vjp(act, l2_row_normalize(act), coeffs)
        numeric = fd_grad(scalar, act)
        assert agreement([analytic], [numeric], tol=1e-6) >= 0.99


@pytest.mark.parametrize("failure", ["no_git", "not_a_repository"])
def test_git_describe_is_none_when_git_fails(monkeypatch, failure):
    def run(command, **kwargs):
        if failure == "no_git":
            raise FileNotFoundError(command[0])
        return subprocess.CompletedProcess(command, 128, "", "fatal: not a git repository")

    monkeypatch.setattr(runner.subprocess, "run", run)
    assert runner.git_describe() is None
