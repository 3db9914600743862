import argparse
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import damaged_checkpoint, store_arrays, store_config, theta_for

import ffnet
from ffnet.cli import _config_from_args, build_parser, main
from ffnet.data import write_idx
from ffnet.errors import ConfigError, DataFormatError
from ffnet.fetch import RemoteFile, dataset_available, fetch_dataset, sha256_file
from ffnet.linalg import make_rng
from ffnet.runner import METHODS, RunConfig

IDX_NAMES = [
    "train-images-idx3-ubyte.gz",
    "train-labels-idx1-ubyte.gz",
    "t10k-images-idx3-ubyte.gz",
    "t10k-labels-idx1-ubyte.gz",
]


TRAIN_FLAGS = [
    "--dataset", "mnist",
    "--epochs", "2",
    "--batch-size", "40",
    "--theta", "5",
    "--layer-dims", "794,24,16,12",
    "--train-subset", "200",
    "--entropy-eval-n", "60",
    "--eval-every", "1",
    "--seed", "3",
]


def train_flags(method: str) -> list[str]:
    """A copy of TRAIN_FLAGS with a theta ``method`` accepts."""
    flags = list(TRAIN_FLAGS)
    flags[flags.index("--theta") + 1] = str(theta_for(method, 5.0))
    return flags


class TestTrainCommand:
    def test_train_writes_all_artifacts(self, data_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(
            ["train", "--method", "ff", "--data-dir", str(data_dir),
             "--output-dir", str(out), *TRAIN_FLAGS]
        )
        assert rc == 0
        for name in ("checkpoint.npz", "history.csv", "entropy.csv",
                     "errors.csv", "config.json", "summary.json"):
            assert (out / name).exists(), name
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["final_test_error"] <= 1.0
        config = json.loads((out / "config.json").read_text())
        assert config["gamma_mode"] == "none"  # resolved default for ff
        assert config["schedule"] == "layerwise"
        assert config["layer_dims"] == [794, 24, 16, 12]

    def test_fixed_seed_runs_are_bitwise_identical(self, data_dir, tmp_path):
        from ffnet.checkpoint import load_checkpoint

        nets = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            rc = main(
                ["train", "--method", "collab_ff", "--data-dir", str(data_dir),
                 "--output-dir", str(out), *TRAIN_FLAGS]
            )
            assert rc == 0
            nets.append(load_checkpoint(out / "checkpoint.npz")[0])
        for la, lb in zip(nets[0].layers, nets[1].layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)

    def test_config_file_layering(self, data_dir, tmp_path):
        config_file = tmp_path / "base.json"
        config_file.write_text(json.dumps({"epochs": 1, "theta": 4.0, "seed": 9}))
        out = tmp_path / "layered"
        rc = main(
            ["train", "--config", str(config_file), "--dataset", "mnist",
             "--method", "ff", "--epochs", "2", "--batch-size", "40",
             "--layer-dims", "794,16,12,8", "--train-subset", "120",
             "--entropy-eval-n", "40", "--data-dir", str(data_dir),
             "--output-dir", str(out)]
        )
        assert rc == 0
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["epochs"] == 2  # CLI beats config file
        assert resolved["theta"] == 4.0  # config file beats default
        assert resolved["seed"] == 9

    def test_config_file_that_is_not_an_object_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        config_file = tmp_path / "list.json"
        config_file.write_text("[1, 2]")
        rc = main(["train", "--config", str(config_file), "--method", "ff"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: config must be a JSON object, got list"
        ]

    def test_config_file_that_is_not_json_names_itself(self, tmp_path, capsys):
        config_file = tmp_path / "bad.json"
        config_file.write_text("{oops")
        out = tmp_path / "bad"
        rc = main(["train", "--config", str(config_file), "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config file {config_file} is not valid JSON: "
            "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        ("field", "value"),
        [("epochs", "3"), ("theta", True), ("layer_dims", [794, "24"])],
    )
    def test_config_field_of_the_wrong_type_is_a_one_line_error(
        self, tmp_path, capsys, field, value
    ):
        config_file = tmp_path / "typed.json"
        config_file.write_text(json.dumps({field: value}))
        out = tmp_path / "typed"
        rc = main(["train", "--config", str(config_file), "--method", "ff",
                   "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config field {field} has the wrong type: {value!r}"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        ("source", "dims"),
        [("flag", ""), ("config", []), ("config", [794]), ("flag", "794,0,12")],
        ids=["empty_flag", "empty_config", "one_entry", "zero_width"],
    )
    def test_short_or_empty_layer_dims_is_a_one_line_error(
        self, data_dir, tmp_path, capsys, source, dims
    ):
        out = tmp_path / "dims"
        args = ["train", "--method", "ff", "--dataset", "mnist",
                "--data-dir", str(data_dir), "--output-dir", str(out)]
        if source == "flag":
            args += ["--layer-dims", dims]
            shown = [int(v) for v in dims.split(",") if v]
        else:
            config_file = tmp_path / "dims.json"
            config_file.write_text(json.dumps({"layer_dims": dims}))
            args += ["--config", str(config_file)]
            shown = dims
        rc = main(args)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: layer_dims needs at least 2 entries, all positive, got {shown}"
        ]
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize(
        ("source", "field", "value", "message"),
        [
            ("flag", "seed", "-1", "seed must be >= 0, got -1"),
            ("config", "seed", -1, "seed must be >= 0, got -1"),
            ("flag", "learning_rate", "nan",
             "learning_rate must be finite and > 0, got nan"),
            ("flag", "learning_rate", "inf",
             "learning_rate must be finite and > 0, got inf"),
            ("flag", "eval_every", "0", "eval_every must be >= 1, got 0"),
            ("flag", "entropy_eval_n", "1", "entropy_eval_n must be >= 2, got 1"),
            ("flag", "train_subset", "0", "train_subset must be >= 1, got 0"),
            ("flag", "batch_size", "0", "batch_size must be >= 1, got 0"),
            ("config", "gamma_mode", "all",
             "gamma_mode must be one of ('none', 'all_other_layers', 'predecessors_only'), "
             "got 'all'"),
            ("config", "schedule", "greedy",
             "schedule must be one of ('layerwise', 'alternating'), got 'greedy'"),
        ],
        ids=["seed_flag", "seed_config", "lr_nan", "lr_inf", "eval_every",
             "entropy_eval_n", "train_subset", "batch_size",
             "gamma_mode_config", "schedule_config"],
    )
    def test_bad_shared_setting_is_a_one_line_error(
        self, data_dir, tmp_path, capsys, source, field, value, message
    ):
        out = tmp_path / "bad"
        flags = TRAIN_FLAGS[: TRAIN_FLAGS.index("--seed")]  # a flag beats the file
        args = ["train", "--method", "ff", "--data-dir", str(data_dir),
                "--output-dir", str(out), *flags]
        if source == "flag":
            args += ["--" + field.replace("_", "-"), value]
        else:
            config_file = tmp_path / "bad.json"
            config_file.write_text(json.dumps({field: value}))
            args += ["--config", str(config_file)]
        rc = main(args)
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize(
        ("field", "value"), [("negatives_per_positive", 2), ("classic_normalize", False)]
    )
    def test_config_file_naming_a_retired_setting_is_a_one_line_error(
        self, data_dir, tmp_path, capsys, field, value
    ):
        """Every batch draws one negative per positive and the classic head is
        never normalized, so neither setting is a config field any more."""
        config_file = tmp_path / "retired.json"
        config_file.write_text(json.dumps({field: value}))
        out = tmp_path / "run"
        rc = main(["train", "--method", "ff", "--data-dir", str(data_dir),
                   "--output-dir", str(out), "--config", str(config_file), *TRAIN_FLAGS])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: unknown config fields: [{field!r}]"
        ]
        assert not out.exists()

    def test_unknown_dataset_of_a_config_file_is_a_one_line_error(
        self, data_dir, tmp_path, capsys
    ):
        """The --dataset flag takes only known names; a config file's dataset
        with explicit layer_dims reaches the loader, which names it."""
        out = tmp_path / "bad"
        config_file = tmp_path / "bad.json"
        config_file.write_text(json.dumps({"dataset": "emnist"}))
        rc = main(["train", "--method", "ff", "--data-dir", str(data_dir),
                   "--output-dir", str(out), "--config", str(config_file),
                   "--layer-dims", "794,24,16,12"])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: dataset must be one of ('mnist', 'fashion_mnist'), got 'emnist'"
        ]
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize(
        ("args", "message"),
        [
            (["sweep", "--method", "entropy_ff", "--thetas", "1,5"],
             "entropy_ff ignores theta; it must be 10.0, got 1.0"),
            (["train", "--method", "bp_classic", "--theta", "5"],
             "bp_classic ignores theta; it must be 10.0, got 5.0"),
        ],
        ids=["entropy_sweep", "classic_train"],
    )
    def test_theta_the_method_ignores_is_a_one_line_error(
        self, data_dir, tmp_path, capsys, args, message
    ):
        out = tmp_path / "run"
        rc = main([*args, "--dataset", "mnist", "--data-dir", str(data_dir),
                   "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_unknown_method_is_usage_error(self, data_dir, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--method", "nonsense"])
        assert exc.value.code == 2
        assert "bp_classic" in capsys.readouterr().err  # lists valid values

    def test_classic_method_trains(self, data_dir, tmp_path):
        out = tmp_path / "classic"
        rc = main(
            ["train", "--method", "bp_classic", "--dataset", "mnist",
             "--epochs", "2", "--batch-size", "40",
             "--layer-dims", "784,24,16,10", "--train-subset", "160",
             "--entropy-eval-n", "40", "--eval-every", "1",
             "--data-dir", str(data_dir), "--output-dir", str(out)]
        )
        assert rc == 0
        assert not (out / "entropy.csv").exists()  # goodness undefined here
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["final_test_error"] <= 1.0

    def test_entropy_with_one_sample_batches_is_a_one_line_error(
        self, data_dir, tmp_path, capsys
    ):
        flags = train_flags("entropy_ff")
        flags[flags.index("--batch-size") + 1] = "1"
        out = tmp_path / "entropy_b1"
        rc = main(
            ["train", "--method", "entropy_ff", "--schedule", "alternating",
             "--data-dir", str(data_dir), "--output-dir", str(out), *flags]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the entropy objective needs 2 samples per batch, got batch_size 1"
        ]
        assert not (out / "history.csv").exists()

    @pytest.mark.parametrize(
        ("method", "train_n", "message"),
        [
            ("entropy_ff", 1, "the entropy objective needs 2 training samples, got 1"),
            ("ff", 0, "training needs 1 training sample, got 0"),
        ],
        ids=["entropy_one_sample", "empty_split"],
    )
    def test_split_too_small_to_train_is_a_one_line_error(
        self, data_dir, tmp_path, capsys, method, train_n, message
    ):
        cache = tmp_path / "data"
        shutil.copytree(data_dir, cache)
        if train_n == 0:
            mnist = cache / "mnist"
            write_idx(mnist / "train-images-idx3-ubyte.gz", np.zeros((0, 28, 28)))
            write_idx(mnist / "train-labels-idx1-ubyte.gz", np.zeros(0))
        flags = train_flags(method)
        flags[flags.index("--train-subset") + 1] = "1"  # all of an empty split
        out = tmp_path / "run"
        rc = main(
            ["train", "--method", method, "--data-dir", str(cache),
             "--output-dir", str(out), *flags]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (out / "config.json").exists()

    def test_train_subset_larger_than_the_split_is_a_one_line_error(
        self, data_dir, tmp_path, capsys
    ):
        flags = list(TRAIN_FLAGS)
        flags[flags.index("--train-subset") + 1] = "241"  # the split holds 240
        out = tmp_path / "run"
        rc = main(["train", "--method", "ff", "--data-dir", str(data_dir),
                   "--output-dir", str(out), *flags])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: train_subset 241 exceeds the 240 training samples"
        ]
        assert not out.exists()

    def test_entropy_test_split_of_one_sample_is_a_one_line_error(
        self, data_dir, tmp_path, capsys
    ):
        cache = tmp_path / "data"
        shutil.copytree(data_dir, cache)
        mnist = cache / "mnist"
        write_idx(mnist / "t10k-images-idx3-ubyte.gz", np.zeros((1, 28, 28), dtype=np.uint8))
        write_idx(mnist / "t10k-labels-idx1-ubyte.gz", np.zeros(1, dtype=np.uint8))
        out = tmp_path / "run"
        rc = main(
            ["train", "--method", "entropy_ff", "--data-dir", str(cache),
             "--output-dir", str(out), *train_flags("entropy_ff")]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: the entropy objective needs 2 test samples, got 1"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("method", ["ff", "bp_classic"])
    def test_empty_test_split_is_a_one_line_error(
        self, data_dir, tmp_path, capsys, method
    ):
        cache = tmp_path / "data"
        shutil.copytree(data_dir, cache)
        mnist = cache / "mnist"
        write_idx(mnist / "t10k-images-idx3-ubyte.gz", np.zeros((0, 28, 28), dtype=np.uint8))
        write_idx(mnist / "t10k-labels-idx1-ubyte.gz", np.zeros(0, dtype=np.uint8))
        flags = train_flags(method)
        if method == "bp_classic":
            flags[flags.index("--layer-dims") + 1] = "784,16,10"
        out = tmp_path / "run"
        rc = main(
            ["train", "--method", method, "--data-dir", str(cache),
             "--output-dir", str(out), *flags]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: evaluation needs 1 test sample, got 0"
        ]
        assert not out.exists()

    def test_corrupt_cached_idx_file_is_a_one_line_error(
        self, data_dir, tmp_path, capsys
    ):
        cache = tmp_path / "data"
        shutil.copytree(data_dir, cache)
        bad = cache / "mnist" / "t10k-images-idx3-ubyte.gz"
        # A valid gzip header, then a deflate block of the reserved type 3.
        bad.write_bytes(b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff\x07" + bytes(32))
        rc = main(
            ["train", "--method", "ff", "--data-dir", str(cache),
             "--output-dir", str(tmp_path / "run"), *TRAIN_FLAGS]
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: images file {bad}: unreadable (")

    def test_dataset_not_fetched_is_a_one_line_error(self, tmp_path, capsys):
        empty, out = tmp_path / "empty", tmp_path / "run"
        rc = main(
            ["train", "--method", "ff", "--data-dir", str(empty),
             "--output-dir", str(out), *TRAIN_FLAGS]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: mnist train split not fetched: train-images-idx3-ubyte.gz, "
            f"train-labels-idx1-ubyte.gz missing from {empty / 'mnist'}; "
            f"run 'ffnet fetch mnist --data-dir {empty}'"
        ]
        assert not out.exists()

    def test_divergence_is_a_one_line_error(self, monkeypatch, capsys):
        import ffnet.cli as cli_mod

        def diverge(cfg):
            raise FloatingPointError("non-finite loss at layer 2; training diverged")

        monkeypatch.setattr(cli_mod, "run_from_paths", diverge)
        rc = main(["train", "--method", "ff", *TRAIN_FLAGS])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: non-finite loss at layer 2; training diverged"
        ]

    @pytest.mark.parametrize("fails", [False, True])
    def test_warnings_are_shown_only_on_success(self, monkeypatch, capsys, fails):
        import warnings

        import ffnet.cli as cli_mod

        def run(cfg):
            warnings.warn("overflow on the way", RuntimeWarning)
            if fails:
                raise FloatingPointError("non-finite loss at layer 1; training diverged")
            return {"final_test_error": 0.5}

        monkeypatch.setattr(cli_mod, "run_from_paths", run)
        with warnings.catch_warnings(record=True) as shown:
            warnings.simplefilter("always")
            rc = main(["train", "--method", "ff", *TRAIN_FLAGS])
        err = capsys.readouterr().err.splitlines()
        if fails:
            assert rc == 1
            assert err == ["error: non-finite loss at layer 1; training diverged"]
            assert shown == []
        else:
            assert rc == 0
            assert [str(w.message) for w in shown] == ["overflow on the way"]
            assert shown[0].category is RuntimeWarning

    @pytest.mark.parametrize("method", METHODS)
    def test_divergence_prints_no_warnings(self, data_dir, tmp_path, method):
        """The RuntimeWarnings of a diverging run's arithmetic are not printed
        before its one error line."""
        flags = train_flags(method)
        if method == "bp_classic":
            flags[flags.index("--layer-dims") + 1] = "784,24,16,10"
        done = subprocess.run(
            [sys.executable, "-m", "ffnet", "train", "--method", method,
             "--learning-rate", "1e300", "--data-dir", str(data_dir),
             "--output-dir", str(tmp_path / "run"), *flags],
            env={**os.environ, "PYTHONPATH": str(Path(ffnet.__file__).parents[1])},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith("error: non-finite loss at layer "), done.stderr

    def test_sweep_shows_its_runs_warnings(self, tmp_path):
        """A successful sweep shows the warnings each of its runs raised."""
        script = (
            "import sys, warnings\n"
            "import ffnet.cli, ffnet.runner\n"
            "def run(cfg):\n"
            "    warnings.warn(f'theta {cfg.theta:g} warns', RuntimeWarning)\n"
            "    return {'final_test_error': 0.5}\n"
            "ffnet.runner.run_from_paths = run\n"
            "sys.exit(ffnet.cli.main(sys.argv[1:]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, "sweep", "--method", "ff", "--dataset", "mnist",
             "--layer-dims", "794,8", "--output-dir", str(tmp_path / "sweep"),
             "--thetas", "3,6"],
            env={**os.environ, "PYTHONPATH": str(Path(ffnet.__file__).parents[1])},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert "RuntimeWarning: theta 3 warns" in done.stderr
        assert "RuntimeWarning: theta 6 warns" in done.stderr

    def test_diverging_sweep_prints_no_warnings(self, data_dir, tmp_path):
        """A run's RuntimeWarnings are held, so a diverging sweep prints its
        one error line alone."""
        done = subprocess.run(
            [sys.executable, "-m", "ffnet", "sweep", "--method", "collab_ff",
             "--learning-rate", "1e300", "--thetas", "5,6",
             "--data-dir", str(data_dir), "--output-dir", str(tmp_path / "sweep"),
             *TRAIN_FLAGS],
            env={**os.environ, "PYTHONPATH": str(Path(ffnet.__file__).parents[1])},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        assert len(done.stderr.splitlines()) == 1, done.stderr
        assert done.stderr.startswith("error: non-finite loss at layer "), done.stderr

    def test_train_loads_neither_scipy_nor_the_network_stack(self, data_dir, tmp_path):
        script = (
            "import sys\n"
            "from ffnet.cli import main\n"
            "rc = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy' or m == 'urllib.request'))\n"
            "sys.exit(rc)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, "train", "--method", "collab_ff",
             "--data-dir", str(data_dir), "--output-dir", str(tmp_path / "run"),
             *TRAIN_FLAGS],
            env={**os.environ, "PYTHONPATH": str(Path(ffnet.__file__).parents[1])},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


# A value other than the default for every RunConfig field: the words that set
# it on the command line, and its value in a --config file.
FIELD_SETTINGS = {
    "dataset": (["--dataset", "fashion_mnist"], "fashion_mnist"),
    "method": (["--method", "collab_ff"], "collab_ff"),
    "gamma_mode": (["--gamma-mode", "predecessors_only"], "predecessors_only"),
    "schedule": (["--schedule", "alternating"], "alternating"),
    "theta": (["--theta", "2.5"], 2.5),
    "epochs": (["--epochs", "3"], 3),
    "batch_size": (["--batch-size", "7"], 7),
    "learning_rate": (["--learning-rate", "0.01"], 0.01),
    "seed": (["--seed", "5"], 5),
    "layer_dims": (["--layer-dims", "794,8,6"], [794, 8, 6]),
    "output_dir": (["--output-dir", "runs/elsewhere"], "runs/elsewhere"),
    "entropy_eval_n": (["--entropy-eval-n", "30"], 30),
    "eval_every": (["--eval-every", "2"], 2),
    "data_dir": (["--data-dir", "cache"], "cache"),
    "train_subset": (["--train-subset", "9"], 9),
}
RUN_COMMANDS = {"train": [], "sweep": ["--thetas", "1"]}  # the words each needs


def _resolved_run(command, config, *flags):
    """The resolved RunConfig of ``ffnet COMMAND --config CONFIG FLAGS``."""
    args = build_parser().parse_args([command, "--config", str(config), *flags])
    return _config_from_args(args).resolved()


class TestRunFlags:
    """``train`` and ``sweep`` take one flag per RunConfig field and their own."""

    @pytest.mark.parametrize(
        ("command", "own"),
        [("train", ["--seeds"]), ("sweep", ["--thetas"])],
    )
    def test_one_flag_per_field_plus_the_command_flags(self, command, own):
        [commands] = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        flags = [
            action.option_strings[0]
            for action in commands.choices[command]._actions
            if action.dest != "help"
        ]
        fields = [field.name for field in dataclasses.fields(RunConfig)]
        assert sorted(FIELD_SETTINGS) == sorted(fields)
        assert flags == ["--config", *(FIELD_SETTINGS[f][0][0] for f in fields), *own]

    @pytest.mark.parametrize("field", sorted(FIELD_SETTINGS))
    def test_a_flag_resolves_as_the_config_file_field(self, tmp_path, field):
        words, value = FIELD_SETTINGS[field]
        base, with_field = tmp_path / "base.json", tmp_path / "field.json"
        base.write_text("{}")
        with_field.write_text(json.dumps({field: value}))
        for command, needed in RUN_COMMANDS.items():
            by_flag = _resolved_run(command, base, *words, *needed)
            by_file = _resolved_run(command, with_field, *needed)
            assert by_flag == by_file != RunConfig().resolved()

    @pytest.mark.parametrize(
        "words", [["--negatives-per-positive", "2"], ["--classic-normalize"]],
        ids=["negatives_per_positive", "classic_normalize"],
    )
    def test_retired_setting_flag_is_a_usage_error(self, capsys, words):
        for command, needed in RUN_COMMANDS.items():
            with pytest.raises(SystemExit) as exc:
                main([command, *needed, *words])
            assert exc.value.code == 2
            assert capsys.readouterr().err.splitlines()[-1] == (
                f"ffnet: error: unrecognized arguments: {' '.join(words)}"
            )

    @pytest.mark.parametrize(
        ("command", "flag", "value"),
        [("train", "--layer-dims", "794,,12"), ("train", "--layer-dims", "794,12,"),
         ("train", "--seeds", "1,,2"), ("sweep", "--thetas", "1,,2"),
         ("eval", "--subsets", "1,,2")],
        ids=["dims", "trailing_comma", "seeds", "thetas", "subsets"],
    )
    def test_empty_part_of_a_comma_list_is_a_usage_error(self, capsys, command, flag, value):
        needed = {**RUN_COMMANDS, "eval": ["checkpoint.npz", "--output-dir", "eval"]}
        with pytest.raises(SystemExit) as exc:
            main([command, *needed[command], flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"ffnet {command}: error: argument {flag}: empty entry in {value!r}"
        )

    @pytest.mark.parametrize(
        ("command", "flag", "value", "bad"),
        [("train", "--layer-dims", "794,1.5", "1.5"), ("train", "--seeds", "1,x", "x"),
         ("sweep", "--thetas", "3,five", "five")],
        ids=["dims", "seeds", "thetas"],
    )
    def test_bad_entry_of_a_comma_list_is_a_usage_error(
        self, capsys, command, flag, value, bad
    ):
        with pytest.raises(SystemExit) as exc:
            main([command, *RUN_COMMANDS[command], flag, value])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"ffnet {command}: error: argument {flag}: bad entry {bad!r} in {value!r}"
        )

    @pytest.mark.parametrize("command", sorted(RUN_COMMANDS))
    def test_help_exits_zero(self, command):
        done = subprocess.run(
            [sys.executable, "-m", "ffnet", command, "--help"],
            env={**os.environ, "PYTHONPATH": str(Path(ffnet.__file__).parents[1])},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(f"usage: ffnet {command} ")


@pytest.fixture(scope="module")
def trained_run(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    rc = main(
        ["train", "--method", "collab_ff", "--data-dir", str(data_dir),
         "--output-dir", str(out), *TRAIN_FLAGS]
    )
    assert rc == 0
    return out


class TestEvalCommand:
    def test_eval_writes_reports(self, data_dir, trained_run, tmp_path):
        out = tmp_path / "eval"
        rc = main(
            ["eval", str(trained_run / "checkpoint.npz"),
             "--output-dir", str(out), "--data-dir", str(data_dir)]
        )
        assert rc == 0
        for name in ("subsets.csv", "marginals.csv", "entropy_report.csv",
                     "eval_summary.json"):
            assert (out / name).exists(), name
        lines = (out / "subsets.csv").read_text().splitlines()
        assert lines[0] == "subset,error,n"
        subsets = {line.split(",")[0] for line in lines[1:]}
        assert {"1", "2", "3", "1+2", "1+2+3", "2+3", "1+3"} == subsets

    def test_eval_is_deterministic(self, data_dir, trained_run, tmp_path):
        outputs = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            rc = main(
                ["eval", str(trained_run / "checkpoint.npz"),
                 "--output-dir", str(out), "--data-dir", str(data_dir)]
            )
            assert rc == 0
            outputs.append(
                {
                    name: (out / name).read_bytes()
                    for name in ("subsets.csv", "marginals.csv",
                                 "entropy_report.csv", "eval_summary.json")
                }
            )
        assert outputs[0] == outputs[1]

    def test_explicit_subsets(self, data_dir, trained_run, tmp_path):
        out = tmp_path / "explicit"
        rc = main(
            ["eval", str(trained_run / "checkpoint.npz"), "--output-dir", str(out),
             "--data-dir", str(data_dir), "--subsets", "1,1+2"]
        )
        assert rc == 0
        lines = (out / "subsets.csv").read_text().splitlines()
        assert len(lines) == 3
        assert not (out / "marginals.csv").exists()  # leave-one-outs absent

    def test_explicit_subsets_remove_an_earlier_evals_marginals(
        self, data_dir, trained_run, tmp_path
    ):
        out = tmp_path / "reused"
        for extra in ([], ["--subsets", "1,1+2"]):
            rc = main(
                ["eval", str(trained_run / "checkpoint.npz"), "--output-dir", str(out),
                 "--data-dir", str(data_dir), *extra]
            )
            assert rc == 0
        lines = (out / "subsets.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "1+2"]
        assert not (out / "marginals.csv").exists()

    def test_depth_one_checkpoint_evaluates(self, data_dir, tmp_path):
        """A depth-1 family has no leave-one-out set, so no marginals."""
        flags = list(TRAIN_FLAGS)
        flags[flags.index("--layer-dims") + 1] = "794,8"
        run = tmp_path / "run"
        rc = main(
            ["train", "--method", "ff", "--data-dir", str(data_dir),
             "--output-dir", str(run), *flags]
        )
        assert rc == 0
        out = tmp_path / "eval"
        rc = main(
            ["eval", str(run / "checkpoint.npz"), "--output-dir", str(out),
             "--data-dir", str(data_dir)]
        )
        assert rc == 0
        lines = (out / "subsets.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1"]
        assert not (out / "marginals.csv").exists()

    def test_classic_checkpoint_rejects_subsets(self, data_dir, tmp_path, capsys):
        out = tmp_path / "classic"
        rc = main(
            ["train", "--method", "bp_classic", "--dataset", "mnist",
             "--epochs", "1", "--batch-size", "40",
             "--layer-dims", "784,16,12,10", "--train-subset", "120",
             "--entropy-eval-n", "40", "--data-dir", str(data_dir),
             "--output-dir", str(out)]
        )
        assert rc == 0
        rc = main(
            ["eval", str(out / "checkpoint.npz"), "--output-dir", str(tmp_path / "e"),
             "--data-dir", str(data_dir), "--subsets", "1+2"]
        )
        assert rc == 1
        assert "classic" in capsys.readouterr().err

    def test_truncated_checkpoint_is_a_one_line_error(
        self, data_dir, trained_run, tmp_path, capsys
    ):
        checkpoint = tmp_path / "truncated.npz"
        checkpoint.write_bytes((trained_run / "checkpoint.npz").read_bytes()[:300])
        rc = main(
            ["eval", str(checkpoint), "--output-dir", str(tmp_path / "eval"),
             "--data-dir", str(data_dir)]
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: malformed checkpoint {checkpoint}: ")

    @pytest.mark.parametrize(
        ("subsets", "message"),
        [
            ("1,1", "subset 1 is requested twice"),
            ("1+2,2+1", "subset 1+2 is requested twice"),
            ("", "no subsets requested"),
            ("4", "subset 4 names layer 4; the network has 3 layers"),
            ("1,1+5", "subset 1+5 names layer 5; the network has 3 layers"),
        ],
        ids=["repeated", "reordered", "empty", "too_deep", "too_deep_later"],
    )
    def test_bad_subset_list_is_a_one_line_error(
        self, data_dir, trained_run, tmp_path, capsys, subsets, message
    ):
        out = tmp_path / "eval"
        rc = main(
            ["eval", str(trained_run / "checkpoint.npz"), "--output-dir", str(out),
             "--data-dir", str(data_dir), "--subsets", subsets]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_dataset_not_fetched_is_a_one_line_error(self, trained_run, tmp_path, capsys):
        empty, out = tmp_path / "empty", tmp_path / "eval"
        rc = main(
            ["eval", str(trained_run / "checkpoint.npz"), "--output-dir", str(out),
             "--data-dir", str(empty)]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: mnist test split not fetched: t10k-images-idx3-ubyte.gz, "
            f"t10k-labels-idx1-ubyte.gz missing from {empty / 'mnist'}; "
            f"run 'ffnet fetch mnist --data-dir {empty}'"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("config", [[1, 2], None], ids=["list", "null"])
    def test_checkpoint_config_that_is_not_an_object_is_a_one_line_error(
        self, data_dir, trained_run, tmp_path, capsys, config
    ):
        from ffnet.checkpoint import load_checkpoint

        net, _, _ = load_checkpoint(trained_run / "checkpoint.npz")
        checkpoint = tmp_path / "edited.npz"
        store_config(checkpoint, net, config)
        out = tmp_path / "eval"
        rc = main(
            ["eval", str(checkpoint), "--output-dir", str(out),
             "--data-dir", str(data_dir)]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: malformed checkpoint {checkpoint}: config is not a JSON object"
        ]
        assert not out.exists()

    def test_checkpoint_of_one_dim_is_a_one_line_error(self, tmp_path, capsys):
        from ffnet.nn import init_network

        checkpoint = tmp_path / "one_dim.npz"
        store_arrays(checkpoint, init_network([6, 4], make_rng(0)), {"layer_dims": np.array([6])})
        out = tmp_path / "eval"
        assert main(["eval", str(checkpoint), "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: malformed checkpoint {checkpoint}: "
            "layer_dims needs at least 2 entries, all positive, got [6]"
        ]
        assert not out.exists()

    def test_checkpoint_with_a_nan_weight_is_a_one_line_error(self, data_dir, tmp_path, capsys):
        """A classic network scores a NaN weight without a word, as NaN logits."""
        from ffnet.checkpoint import save_checkpoint
        from ffnet.nn import init_network

        dims = [784, 16, 10]
        net = init_network(dims, make_rng(0))
        net.layers[1].weights[3, 4] = np.nan
        checkpoint = tmp_path / "nan.npz"
        config = {"dataset": "mnist", "method": "bp_classic", "layer_dims": dims}
        save_checkpoint(checkpoint, net, config)
        out = tmp_path / "eval"
        rc = main(["eval", str(checkpoint), "--output-dir", str(out),
                   "--data-dir", str(data_dir)])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: malformed checkpoint {checkpoint}: weights_1 holds a non-finite value"
        ]
        assert not (out / "eval_summary.json").exists()

    @pytest.mark.parametrize("damage", ["compression", "npy_header"])
    def test_damaged_checkpoint_entry_is_a_one_line_error(self, tmp_path, capsys, damage):
        checkpoint = tmp_path / "damaged.npz"
        damaged_checkpoint(checkpoint, damage)
        out = tmp_path / "eval"
        assert main(["eval", str(checkpoint), "--output-dir", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: malformed checkpoint {checkpoint}: ")
        assert not out.exists()

    def test_checkpoint_config_that_is_not_json_is_a_one_line_error(
        self, data_dir, trained_run, tmp_path, capsys
    ):
        from ffnet.checkpoint import load_checkpoint

        net, _, _ = load_checkpoint(trained_run / "checkpoint.npz")
        checkpoint = tmp_path / "edited.npz"
        store_config(checkpoint, net, {}, text="{oops")
        out = tmp_path / "eval"
        rc = main(
            ["eval", str(checkpoint), "--output-dir", str(out),
             "--data-dir", str(data_dir)]
        )
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: malformed checkpoint {checkpoint}: Expecting")
        assert not out.exists()

    @pytest.mark.parametrize(
        ("change", "message"),
        [
            ({"bogus": 1}, "unknown config fields: ['bogus']"),
            ({"epochs": "2"}, "config field epochs has the wrong type: '2'"),
        ],
        ids=["unknown_field", "wrong_type"],
    )
    def test_checkpoint_config_that_is_not_a_run_config_is_a_one_line_error(
        self, data_dir, trained_run, tmp_path, capsys, change, message
    ):
        from ffnet.checkpoint import load_checkpoint, save_checkpoint

        net, config, _ = load_checkpoint(trained_run / "checkpoint.npz")
        checkpoint = tmp_path / "edited.npz"
        save_checkpoint(checkpoint, net, {**config, **change})
        out = tmp_path / "eval"
        rc = main(
            ["eval", str(checkpoint), "--output-dir", str(out),
             "--data-dir", str(data_dir)]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("method", ["entropy_ff", "bp_classic"])
    def test_stored_setting_the_method_ignores_changes_no_report(
        self, data_dir, tmp_path, method
    ):
        """A checkpoint whose config records a theta its method never read
        evaluates as the same network stored with the default theta."""
        from ffnet.checkpoint import load_checkpoint, save_checkpoint

        flags = train_flags(method)
        if method == "bp_classic":
            flags[flags.index("--layer-dims") + 1] = "784,24,16,10"
        run = tmp_path / "run"
        assert main(["train", "--method", method, "--data-dir", str(data_dir),
                     "--output-dir", str(run), *flags]) == 0
        net, config, _ = load_checkpoint(run / "checkpoint.npz")
        save_checkpoint(tmp_path / "theta_5.npz", net, {**config, "theta": 5.0})
        written = []
        for checkpoint in (run / "checkpoint.npz", tmp_path / "theta_5.npz"):
            out = tmp_path / checkpoint.stem
            assert main(["eval", str(checkpoint), "--output-dir", str(out),
                         "--data-dir", str(data_dir)]) == 0
            summary = json.loads((out / "eval_summary.json").read_text())
            del summary["checkpoint"], summary["config_hash"]
            reports = {path.name: path.read_bytes() for path in out.iterdir()}
            del reports["eval_summary.json"]
            written.append((summary, reports))
        assert written[0] == written[1]

    def test_checkpoint_storing_the_retired_settings_evaluates_as_without_them(
        self, data_dir, tmp_path
    ):
        """An ``ff`` checkpoint written while ``negatives_per_positive`` and
        ``classic_normalize`` were settings records both; neither changes a report."""
        from ffnet.checkpoint import load_checkpoint, save_checkpoint

        run = tmp_path / "run"
        assert main(["train", "--method", "ff", "--data-dir", str(data_dir),
                     "--output-dir", str(run), *TRAIN_FLAGS]) == 0
        net, config, _ = load_checkpoint(run / "checkpoint.npz")
        old = {**config, "negatives_per_positive": 2, "classic_normalize": False}
        save_checkpoint(tmp_path / "old.npz", net, old)
        written = []
        for checkpoint in (run / "checkpoint.npz", tmp_path / "old.npz"):
            out = tmp_path / checkpoint.stem
            assert main(["eval", str(checkpoint), "--output-dir", str(out),
                         "--data-dir", str(data_dir)]) == 0
            summary = json.loads((out / "eval_summary.json").read_text())
            del summary["checkpoint"], summary["config_hash"]
            reports = {path.name: path.read_bytes() for path in out.iterdir()}
            del reports["eval_summary.json"]
            written.append((summary, reports))
        assert written[0] == written[1]

    def test_classic_checkpoint_trained_with_normalization_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        """The classic head is never normalized now, so a network trained with
        normalization cannot be scored; the error comes before the test split
        is read (here it is not fetched) and before any file is written."""
        from ffnet.checkpoint import save_checkpoint
        from ffnet.nn import init_network

        dims = [784, 16, 10]
        config = {"dataset": "mnist", "method": "bp_classic", "layer_dims": dims,
                  "classic_normalize": True}
        checkpoint = tmp_path / "normalized.npz"
        save_checkpoint(checkpoint, init_network(dims, make_rng(0)), config)
        out = tmp_path / "eval"
        rc = main(["eval", str(checkpoint), "--output-dir", str(out),
                   "--data-dir", str(tmp_path / "nowhere")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: checkpoint {checkpoint}: trained with classic_normalize, which is retired"
        ]
        assert not out.exists()

    def test_overflowing_scores_are_a_one_line_error(self, data_dir, tmp_path):
        """Finite weights whose goodness overflows fail the eval with the layer
        that overflowed, not as a training divergence, and print no warning."""
        from ffnet.checkpoint import save_checkpoint
        from ffnet.nn import init_network

        dims = [794, 6, 5]
        net = init_network(dims, make_rng(0))
        net.layers[0].weights *= 1e160
        checkpoint = tmp_path / "huge.npz"
        save_checkpoint(checkpoint, net, {"dataset": "mnist", "method": "ff", "epochs": 1,
                                          "layer_dims": dims})
        out = tmp_path / "eval"
        done = subprocess.run(
            [sys.executable, "-m", "ffnet", "eval", str(checkpoint), "--output-dir", str(out),
             "--data-dir", str(data_dir)],
            env={**os.environ, "PYTHONPATH": str(Path(ffnet.__file__).parents[1])},
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 1, done.stderr
        assert done.stderr.splitlines() == [
            f"error: checkpoint {checkpoint}: layer 1 gives a non-finite score on the test split"
        ]
        assert not out.exists()


class TestMultiSeed:
    def test_seeds_flag_aggregates_mean_and_std(self, data_dir, tmp_path):
        out = tmp_path / "multi"
        rc = main(
            ["train", "--method", "ff", "--dataset", "mnist",
             "--epochs", "1", "--batch-size", "40",
             "--layer-dims", "794,16,12,8", "--train-subset", "120",
             "--entropy-eval-n", "40", "--data-dir", str(data_dir),
             "--output-dir", str(out), "--seeds", "0,1"]
        )
        assert rc == 0
        aggregate = json.loads((out / "summary.json").read_text())
        assert aggregate["seeds"] == [0, 1]
        assert len(aggregate["per_seed_test_error"]) == 2
        assert aggregate["mean_test_error"] == pytest.approx(
            sum(aggregate["per_seed_test_error"]) / 2
        )
        assert (out / "seed_0" / "checkpoint.npz").exists()
        assert (out / "seed_1" / "checkpoint.npz").exists()


class TestMultiRunChecks:
    """``--seeds`` and ``--thetas`` check every variant before the first run."""

    @pytest.mark.parametrize(
        ("command", "values", "message"),
        [
            ("train", ",", "no seed values given"),
            ("sweep", ",", "no theta values given"),
            ("train", "0,-1", "seed must be >= 0, got -1"),
            ("sweep", "3,nan", "theta must be finite, got nan"),
            ("train", "1,1", "seed values 1 and 1 share the output directory {out}/seed_1"),
            ("sweep", "3,3.0",
             "theta values 3.0 and 3.0 share the output directory {out}/theta_3"),
            ("sweep", "1e-7,1.0000001e-7",
             "theta values 1e-07 and 1.0000001e-07 share the output directory "
             "{out}/theta_1e-07"),
        ],
        ids=["no_seed", "no_theta", "negative_seed", "nan_theta", "same_seed", "same_theta", "same_theta_dir"],
    )
    def test_bad_variant_fails_before_any_run(
        self, data_dir, tmp_path, capsys, command, values, message
    ):
        out = tmp_path / "multi"
        flag = "--seeds" if command == "train" else "--thetas"
        rc = main(
            [command, "--method", "ff", "--dataset", "mnist",
             "--epochs", "1", "--batch-size", "40",
             "--layer-dims", "794,16,12,8", "--train-subset", "120",
             "--entropy-eval-n", "40", "--data-dir", str(data_dir),
             "--output-dir", str(out), flag, values]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: " + message.format(out=out)
        ]
        assert not out.exists()


class TestSweepCommand:
    @staticmethod
    def sweep(data_dir, out, *extra):
        return main(
            ["sweep", "--method", "ff", "--dataset", "mnist",
             "--epochs", "1", "--batch-size", "40",
             "--layer-dims", "794,16,12,8", "--train-subset", "120",
             "--entropy-eval-n", "40", "--data-dir", str(data_dir),
             "--output-dir", str(out), *extra]
        )

    def test_sweep_emits_one_row_per_theta(self, data_dir, tmp_path):
        out = tmp_path / "sweep"
        assert self.sweep(data_dir, out, "--thetas", "3,6") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "theta,method,dataset,final_test_error"
        assert len(lines) == 3
        assert (out / "theta_3" / "checkpoint.npz").exists()
        assert (out / "theta_6" / "checkpoint.npz").exists()


class TestFetch:
    def _serve(self, tmp_path, pin_digests=True):
        """A file:// 'server' plus matching RemoteFile specs."""
        server = tmp_path / "server"
        server.mkdir()
        rng = make_rng(0)
        files = []
        for name in IDX_NAMES:
            if "images" in name:
                payload = rng.integers(0, 256, size=(6, 28, 28)).astype(np.uint8)
            else:
                payload = rng.integers(0, 10, size=6).astype(np.uint8)
            write_idx(server / name, payload)
            digest = sha256_file(server / name) if pin_digests else None
            files.append(RemoteFile(name, (server / name).as_uri(), digest))
        return files

    def test_fetch_verifies_and_is_idempotent(self, tmp_path, monkeypatch):
        import ffnet.fetch as fetch_mod

        files = self._serve(tmp_path)
        monkeypatch.setitem(fetch_mod.DATASETS, "mnist", files)
        cache = tmp_path / "cache"
        paths = fetch_dataset("mnist", cache)
        assert all(p.exists() for p in paths)
        assert dataset_available("mnist", cache)

        def exploding_downloader(url, target):
            raise AssertionError("network touched on a warm cache")

        again = fetch_dataset("mnist", cache, downloader=exploding_downloader)
        assert again == paths

    def test_checksum_mismatch_is_a_hard_error(self, tmp_path, monkeypatch):
        import ffnet.fetch as fetch_mod

        files = self._serve(tmp_path)
        bad = [RemoteFile(f.filename, f.url, "0" * 64) for f in files]
        monkeypatch.setitem(fetch_mod.DATASETS, "mnist", bad)
        with pytest.raises(DataFormatError, match="checksum mismatch"):
            fetch_dataset("mnist", tmp_path / "cache")

    def test_corrupted_cache_detected_via_recorded_digest(self, tmp_path, monkeypatch):
        import ffnet.fetch as fetch_mod

        files = self._serve(tmp_path, pin_digests=False)
        monkeypatch.setitem(fetch_mod.DATASETS, "mnist", files)
        cache = tmp_path / "cache"
        paths = fetch_dataset("mnist", cache)  # records digests
        paths[0].write_bytes(b"corruprupted")
        with pytest.raises(DataFormatError, match="checksum mismatch"):
            fetch_dataset("mnist", cache)

    def test_unpinned_idx_file_that_does_not_read_records_no_digest(self, tmp_path):
        """The shipped IDX downloads pin no digest. Files that do not read are
        removed with no digest recorded, so the next fetch downloads them again;
        good files then read, and their digests are recorded."""
        self._serve(tmp_path)
        served = dict.fromkeys(IDX_NAMES, b"not an idx file")
        downloads = []

        def downloader(url, target):
            downloads.append(url)
            target.write_bytes(served[target.name])

        cache = tmp_path / "cache"
        for attempt in (1, 2):
            with pytest.raises(DataFormatError) as caught:
                fetch_dataset("mnist", cache, downloader=downloader)
            assert len(str(caught.value).splitlines()) == 1
            assert len(downloads) == 4 * attempt
            assert not list((cache / "mnist").iterdir())
        served = {name: (tmp_path / "server" / name).read_bytes() for name in IDX_NAMES}
        paths = fetch_dataset("mnist", cache, downloader=downloader)
        assert len(downloads) == 12
        for path in paths:
            sidecar = path.with_name(path.name + ".sha256")
            assert sidecar.read_text() == sha256_file(path) + "\n"

    @pytest.mark.parametrize(
        ("name", "train", "test"),
        [("mnist", IDX_NAMES[:2], IDX_NAMES[2:]),
         ("fashion_mnist", IDX_NAMES[:2], IDX_NAMES[2:])],
        ids=["mnist", "fashion_mnist"],
    )
    def test_split_never_fetched_names_its_files(self, tmp_path, monkeypatch, name, train, test):
        """On an empty cache each split's error names that split's files and
        the fetch command, with the --data-dir the caller gave."""
        from ffnet.fetch import load_dataset

        monkeypatch.setenv("FFNET_DATA", str(tmp_path / "default"))
        for data_dir, flag in ((tmp_path, f" --data-dir {tmp_path}"), (None, "")):
            root = tmp_path if data_dir else tmp_path / "default"
            assert not dataset_available(name, data_dir)
            for split, files in (("train", train), ("test", test)):
                with pytest.raises(ConfigError) as exc:
                    load_dataset(name, split, data_dir)
                assert str(exc.value) == (
                    f"{name} {split} split not fetched: {', '.join(files)} missing "
                    f"from {root / name}; run 'ffnet fetch {name}{flag}'"
                )

    def test_fetch_cli_prints_paths(self, tmp_path, monkeypatch, capsys):
        import ffnet.fetch as fetch_mod

        files = self._serve(tmp_path)
        monkeypatch.setitem(fetch_mod.DATASETS, "mnist", files)
        rc = main(["fetch", "mnist", "--data-dir", str(tmp_path / "cache")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "train-images-idx3-ubyte.gz" in out
