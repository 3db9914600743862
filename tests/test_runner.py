import csv
import json

import numpy as np
import pytest

from ffnet import runner
from ffnet.checkpoint import load_checkpoint, save_checkpoint
from ffnet.errors import CheckpointError, ConfigError
from ffnet.ff import FfConfig, train
from ffnet.linalg import l2_row_normalize, make_rng
from ffnet.nn import init_network, l2_row_normalize_vjp
from ffnet.runner import (
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
        cfg = RunConfig(dataset="cifar10", method="bp_classic").resolved()
        assert cfg.layer_dims == (3072, 500, 500, 500, 10)

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
            ("bp_classic", "negatives_per_positive", 2),
            ("ff", "classic_normalize", True),
            ("bp_pairwise", "classic_normalize", True),
        ],
    )
    def test_settings_the_method_ignores_rejected(self, method, field, value):
        cfg = RunConfig(dataset="mnist", method=method, **{field: value})
        with pytest.raises(ConfigError, match=f"^{method} ignores {field};"):
            cfg.resolved()

    @pytest.mark.parametrize("method", METHODS)
    def test_settings_the_method_uses_accepted(self, method):
        setting = {
            "bp_classic": {"classic_normalize": True},
            "bp_pairwise": {"negatives_per_positive": 2},
        }.get(method, {"schedule": "alternating", "gamma_mode": "predecessors_only"})
        RunConfig(dataset="mnist", method=method, **setting).resolved()


    @pytest.mark.parametrize("method", METHODS)
    def test_ff_config_copies_the_shared_settings(self, method):
        cfg = RunConfig(
            dataset="mnist", method=method, theta=3.5, epochs=4, batch_size=7,
            learning_rate=0.02, seed=11,
        ).resolved()
        ff_cfg = cfg.ff_config()
        for name in ("theta", "gamma_mode", "schedule", "epochs", "batch_size",
                     "learning_rate", "seed", "negatives_per_positive"):
            assert getattr(ff_cfg, name) == getattr(cfg, name), name
        entropy = method == "entropy_ff"
        assert ff_cfg.loss_kind == ("entropy" if entropy else "sigmoid_goodness")


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
            dataset="synthetic", method=method, theta=4.0, epochs=2,
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
            dataset="synthetic", method=method, theta=4.0, epochs=2,
            batch_size=50, seed=1, layer_dims=dims, output_dir=str(tmp_path),
            entropy_eval_n=60, eval_every=eval_every,
        )
        run_training(cfg, train_ds, test_ds)
        with open(tmp_path / "errors.csv", newline="") as f:
            epochs = [int(row["epoch"]) for row in csv.DictReader(f)]
        assert epochs and all(a < b for a, b in zip(epochs, epochs[1:])), epochs

    def test_dimension_mismatch_with_data(self, tiny_data, tmp_path):
        train_ds, test_ds = tiny_data
        cfg = RunConfig(
            dataset="synthetic", method="ff", layer_dims=[99, 10],
            output_dir=str(tmp_path / "bad"), epochs=1,
        )
        with pytest.raises(ConfigError, match="34-dim"):
            run_training(cfg, train_ds, test_ds)


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

        def spy(net, images, *args, **kwargs):
            scored_rows.append(len(images))
            return score(net, images, *args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        dims = [24, 12, 8, 10] if method == "bp_classic" else [34, 12, 8, 6]
        cfg = RunConfig(
            dataset="synthetic", method=method, theta=4.0, epochs=2,
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
            dataset="mnist", method=method, schedule=schedule, theta=4.0, epochs=2,
            batch_size=40, seed=3, layer_dims=dims,
            output_dir=str(run_dir), entropy_eval_n=60, eval_every=1,
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
        test_ds = synthetic_dataset(40, d=3072, seed=4, split="test", name="cifar10")
        monkeypatch.setattr(runner, "load_dataset", lambda name, split, data_dir: test_ds)
        checkpoint = tmp_path / "checkpoint.npz"
        dims = [3082, 6, 5]
        config = {"method": "ff", "epochs": 1, "layer_dims": dims, "entropy_eval_n": 20}
        save_checkpoint(checkpoint, init_network(dims, make_rng(0)), config)
        with pytest.raises(ConfigError, match="no dataset given"):
            evaluate_checkpoint(checkpoint, tmp_path / "eval")
        summary = evaluate_checkpoint(checkpoint, tmp_path / "eval", dataset="cifar10")
        assert summary["dataset"] == "cifar10"
        assert summary["n_test"] == 40


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
