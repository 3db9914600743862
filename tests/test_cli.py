import json
import shutil
import tarfile

import numpy as np
import pytest
from conftest import store_config

from ffnet.cli import main
from ffnet.data import write_idx
from ffnet.errors import DataFormatError
from ffnet.fetch import RemoteFile, dataset_available, fetch_dataset, sha256_file
from ffnet.linalg import make_rng

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
        ],
        ids=["seed_flag", "seed_config", "lr_nan", "lr_inf"],
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
        flags = list(TRAIN_FLAGS)
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
        flags = list(TRAIN_FLAGS)
        flags[flags.index("--train-subset") + 1] = "1"  # all of an empty split
        out = tmp_path / "run"
        rc = main(
            ["train", "--method", method, "--data-dir", str(cache),
             "--output-dir", str(out), *flags]
        )
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not (out / "config.json").exists()

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
            ("1,1", "--subsets repeats subset 1"),
            ("1+2,2+1", "--subsets repeats subset 1+2"),
            ("", "--subsets needs at least one subset"),
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
            ("train", ",", "train needs at least one seed value"),
            ("sweep", ",", "sweep needs at least one theta value"),
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

    def test_parallel_sweep_matches_sequential(self, data_dir, tmp_path):
        """Worker processes must produce the same errors as in-process runs."""
        results = {}
        for tag, extra in (("seq", []), ("par", ["--parallel", "2"])):
            out = tmp_path / tag
            assert self.sweep(data_dir, out, "--thetas", "3,6", *extra) == 0
            results[tag] = (out / "sweep.csv").read_text()
        assert results["seq"] == results["par"]

    def test_negative_parallel_is_a_one_line_error(self, data_dir, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert self.sweep(data_dir, out, "--thetas", "3,6", "--parallel", "-3") == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: parallel must be a non-negative worker count, got -3"
        ]
        assert not out.exists()

    @pytest.mark.parametrize(
        ("thetas", "parallel", "workers"),
        [("3,6", "64", [2]), ("3,6,9", "2", [2]), ("3", "8", [])],
        ids=["capped", "below_cap", "one_run"],
    )
    def test_parallel_never_exceeds_the_runs(
        self, data_dir, tmp_path, monkeypatch, thetas, parallel, workers
    ):
        """The pool is sized to the runs; a recording stand-in runs them in-process."""
        import concurrent.futures

        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        out = tmp_path / "sweep"
        assert self.sweep(data_dir, out, "--thetas", thetas, "--parallel", parallel) == 0
        assert started == workers
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + len(thetas.split(","))


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

    def test_cifar_archive_extraction(self, tmp_path, monkeypatch):
        import ffnet.fetch as fetch_mod

        rng = make_rng(1)
        server = tmp_path / "server"
        server.mkdir()
        batches_dir = tmp_path / "cifar-10-batches-bin"
        batches_dir.mkdir()
        for member in fetch_mod.CIFAR_MEMBERS:
            records = np.zeros((4, 3073), dtype=np.uint8)
            records[:, 0] = rng.integers(0, 10, size=4)
            records[:, 1:] = rng.integers(0, 256, size=(4, 3072))
            (batches_dir / member).write_bytes(records.tobytes())
        archive = server / "cifar-10-binary.tar.gz"
        with tarfile.open(archive, "w:gz") as tar:
            tar.add(batches_dir, arcname="cifar-10-batches-bin")
        spec = [RemoteFile("cifar-10-binary.tar.gz", archive.as_uri(), sha256_file(archive))]
        monkeypatch.setitem(fetch_mod.DATASETS, "cifar10", spec)
        cache = tmp_path / "cache"
        paths = fetch_dataset("cifar10", cache)
        assert [p.name for p in paths] == fetch_mod.CIFAR_MEMBERS
        from ffnet.fetch import load_dataset

        ds = load_dataset("cifar10", "train", cache)
        assert ds.n == 20  # 5 batches x 4 records

    def test_fetch_cli_prints_paths(self, tmp_path, monkeypatch, capsys):
        import ffnet.fetch as fetch_mod

        files = self._serve(tmp_path)
        monkeypatch.setitem(fetch_mod.DATASETS, "mnist", files)
        rc = main(["fetch", "mnist", "--data-dir", str(tmp_path / "cache")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "train-images-idx3-ubyte.gz" in out
