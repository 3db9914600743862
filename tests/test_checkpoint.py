import json

import numpy as np
import pytest

from ffnet.checkpoint import config_hash, load_checkpoint, save_checkpoint
from ffnet.errors import CheckpointError
from ffnet.linalg import make_rng
from ffnet.nn import init_network


class TestCheckpointRoundTrip:
    def test_bitwise_round_trip(self, tmp_path):
        net = init_network([17, 9, 5], make_rng(3))
        config = {"method": "ff", "seed": 3, "theta": 10.0}
        path = tmp_path / "model.npz"
        save_checkpoint(path, net, config)
        loaded, loaded_config, digest = load_checkpoint(path)
        assert loaded_config == config
        assert digest == config_hash(config)
        assert loaded.layer_dims == net.layer_dims
        for la, lb in zip(net.layers, loaded.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.biases, lb.biases)

    def test_save_load_save_is_stable(self, tmp_path):
        net = init_network([8, 4], make_rng(1))
        save_checkpoint(tmp_path / "a.npz", net, {"seed": 1})
        loaded, config, _ = load_checkpoint(tmp_path / "a.npz")
        save_checkpoint(tmp_path / "b.npz", loaded, config)
        second, _, _ = load_checkpoint(tmp_path / "b.npz")
        for la, lb in zip(loaded.layers, second.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)

    def test_parameters_stored_as_little_endian_float64(self, tmp_path):
        net = init_network([6, 3], make_rng(0))
        save_checkpoint(tmp_path / "m.npz", net, {})
        with np.load(tmp_path / "m.npz") as bundle:
            dtype = bundle["weights_0"].dtype
            assert dtype == np.dtype("<f8")


class TestCheckpointErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "nope.npz")

    @pytest.mark.parametrize("truncated", [False, True], ids=["not_a_zip", "truncated"])
    def test_garbage_file(self, tmp_path, truncated):
        bad = tmp_path / "bad.npz"
        if truncated:
            save_checkpoint(bad, init_network([6, 3], make_rng(0)), {"seed": 1})
            bad.write_bytes(bad.read_bytes()[:300])
        else:
            bad.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_checkpoint(bad)

    def test_tampered_config_detected(self, tmp_path):
        net = init_network([6, 3], make_rng(0))
        path = tmp_path / "m.npz"
        save_checkpoint(path, net, {"seed": 1})
        with np.load(path) as bundle:
            arrays = {k: bundle[k] for k in bundle.files}
        arrays["config_json"] = np.frombuffer(
            json.dumps({"seed": 2}).encode(), dtype=np.uint8
        )
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(CheckpointError, match="hash mismatch"):
            load_checkpoint(path)
