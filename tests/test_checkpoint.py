import json

import numpy as np
import pytest
from conftest import damaged_checkpoint, store_arrays, store_config

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

    def test_loaded_parameters_are_writeable_contiguous_float64(self, tmp_path):
        """Adam steps a loaded layer in place, so its arrays must be its own."""
        net = init_network([9, 5, 4], make_rng(2))
        save_checkpoint(tmp_path / "m.npz", net, {})
        loaded, _, _ = load_checkpoint(tmp_path / "m.npz")
        for saved, layer in zip(net.layers, loaded.layers):
            for want, got in ((saved.weights, layer.weights), (saved.biases, layer.biases)):
                assert got.dtype == np.float64 and got.flags.c_contiguous
                assert got.flags.writeable
                assert got.tobytes() == want.tobytes()

    def test_float32_arrays_load_as_float64(self, tmp_path):
        net = init_network([9, 5, 4], make_rng(2))
        narrow = {}
        for i, layer in enumerate(net.layers):
            narrow[f"weights_{i}"] = layer.weights.astype(np.float32)
            narrow[f"biases_{i}"] = layer.biases.astype(np.float32)
        store_arrays(tmp_path / "m.npz", net, narrow)
        loaded, _, _ = load_checkpoint(tmp_path / "m.npz")
        for i, layer in enumerate(loaded.layers):
            assert layer.weights.dtype == np.float64 and layer.biases.dtype == np.float64
            assert layer.weights.shape == net.layers[i].weights.shape
            assert layer.biases.shape == net.layers[i].biases.shape
            np.testing.assert_array_equal(layer.weights, narrow[f"weights_{i}"])


class TestCheckpointErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_checkpoint(tmp_path / "nope.npz")

    @pytest.mark.parametrize("kind", ["not_a_zip", "truncated", "npy_array"])
    def test_garbage_file(self, tmp_path, kind):
        bad = tmp_path / "bad.npz"
        if kind == "truncated":
            save_checkpoint(bad, init_network([6, 3], make_rng(0)), {"seed": 1})
            bad.write_bytes(bad.read_bytes()[:300])
        elif kind == "npy_array":
            with open(bad, "wb") as handle:
                np.save(handle, np.zeros(3))
        else:
            bad.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="malformed checkpoint"):
            load_checkpoint(bad)

    def test_unknown_zip_compression_method_is_malformed(self, tmp_path):
        path = tmp_path / "m.npz"
        damaged_checkpoint(path, "compression")
        with pytest.raises(CheckpointError) as caught:
            load_checkpoint(path)
        assert str(caught.value) == (
            f"malformed checkpoint {path}: That compression method is not supported"
        )

    def test_unclosed_npy_header_is_malformed(self, tmp_path):
        path = tmp_path / "m.npz"
        damaged_checkpoint(path, "npy_header")
        with pytest.raises(CheckpointError) as caught:
            load_checkpoint(path)
        assert str(caught.value).startswith(f"malformed checkpoint {path}: ")

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

    @pytest.mark.parametrize("config", [[1, 2], None], ids=["list", "null"])
    def test_config_that_is_not_an_object_is_malformed(self, tmp_path, config):
        path = tmp_path / "m.npz"
        store_config(path, init_network([6, 3], make_rng(0)), config)
        with pytest.raises(CheckpointError, match="malformed checkpoint .*JSON object"):
            load_checkpoint(path)

    def test_config_that_is_not_json_is_malformed(self, tmp_path):
        path = tmp_path / "m.npz"
        store_config(path, init_network([6, 3], make_rng(0)), {}, text="{oops")
        with pytest.raises(
            CheckpointError, match=f"malformed checkpoint {path}: Expecting property name"
        ):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        ("change", "fault"),
        [
            ({"layer_dims": np.array([6])},
             "layer_dims needs at least 2 entries, all positive, got [6]"),
            ({"weights_1": np.zeros((5, 3))},
             "weights_1 has shape (5, 3), layer_dims needs (4, 3)"),
            ({"biases_0": np.zeros((2, 4))},
             "biases_0 has shape (2, 4), layer_dims needs (1, 4)"),
        ],
        ids=["one_dim", "unchained_weights", "two_row_bias"],
    )
    def test_arrays_that_do_not_chain_are_malformed(self, tmp_path, change, fault):
        path = tmp_path / "m.npz"
        store_arrays(path, init_network([6, 4, 3], make_rng(0)), change)
        with pytest.raises(CheckpointError) as caught:
            load_checkpoint(path)
        assert str(caught.value) == f"malformed checkpoint {path}: {fault}"
