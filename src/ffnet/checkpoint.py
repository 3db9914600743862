"""Model checkpoints: layer dims, parameters, and the run-config hash.

Stored as an .npz container with explicit little-endian float64 arrays so a
save/load cycle round-trips bit for bit. The resolved run config rides
along as canonical JSON plus its SHA-256 hash.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .nn import DenseLayer, MlpNetwork
from .reports import atomic_write


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def save_checkpoint(path, net: MlpNetwork, config: dict | None = None) -> None:
    config = config or {}
    arrays = {"layer_dims": np.asarray(net.layer_dims, dtype="<i8")}
    for i, layer in enumerate(net.layers):
        arrays[f"weights_{i}"] = layer.weights.astype("<f8", copy=False)
        arrays[f"biases_{i}"] = layer.biases.astype("<f8", copy=False)
    config_json = json.dumps(config, sort_keys=True, separators=(",", ":"))
    arrays["config_json"] = np.frombuffer(config_json.encode("utf-8"), dtype=np.uint8)
    arrays["config_hash"] = np.frombuffer(
        config_hash(config).encode("ascii"), dtype=np.uint8
    )
    atomic_write(path, lambda handle: np.savez(handle, **arrays))


def load_checkpoint(path) -> tuple[MlpNetwork, dict, str]:
    """Returns (network, config dict, config hash)."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        # np.load leaves a file it opened unclosed when zipfile rejects it.
        with open(path, "rb") as handle, np.load(handle) as bundle:
            dims = bundle["layer_dims"].tolist()
            layers = [
                DenseLayer(
                    weights=np.array(bundle[f"weights_{i}"], dtype=np.float64),
                    biases=np.array(bundle[f"biases_{i}"], dtype=np.float64),
                )
                for i in range(len(dims) - 1)
            ]
            config = json.loads(bytes(bundle["config_json"]).decode("utf-8"))
            stored_hash = bytes(bundle["config_hash"]).decode("ascii")
    # TypeError: a bare .npy array is no context manager. ValueError covers
    # a config that is not valid JSON.
    except (KeyError, ValueError, OSError, TypeError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    if config_hash(config) != stored_hash:
        raise CheckpointError(f"checkpoint {path}: config hash mismatch")
    if not isinstance(config, dict):
        raise CheckpointError(
            f"malformed checkpoint {path}: config is not a JSON object"
        )
    net = MlpNetwork(layers)
    if net.layer_dims != dims:
        raise CheckpointError(
            f"checkpoint {path}: stored dims {dims} disagree with arrays "
            f"{net.layer_dims}"
        )
    return net, config, stored_hash
