"""Model checkpoints: layer dims, parameters, and the run-config hash.

Stored as an .npz container with explicit little-endian float64 arrays so a
save/load cycle round-trips bit for bit. The resolved run config rides
along as canonical JSON plus its SHA-256 hash.
"""

from __future__ import annotations

import hashlib
import json
import tokenize
import zipfile
from pathlib import Path

import numpy as np

from .errors import CheckpointError
from .nn import DenseLayer, MlpNetwork, check_layer_dims
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
            dims = check_layer_dims(bundle["layer_dims"].tolist())
            layers = [
                DenseLayer(
                    weights=_param(bundle, f"weights_{i}", (dims[i], dims[i + 1])),
                    biases=_param(bundle, f"biases_{i}", (1, dims[i + 1])),
                )
                for i in range(len(dims) - 1)
            ]
            config = json.loads(bytes(bundle["config_json"]).decode("utf-8"))
            if not isinstance(config, dict):
                raise CheckpointError("config is not a JSON object")
            stored_hash = bytes(bundle["config_hash"]).decode("ascii")
    # TypeError: a bare .npy array is no context manager; ValueError: a config that is not a
    # JSON object, arrays that do not chain; the rest: damaged zip entries or .npy headers.
    except (KeyError, ValueError, OSError, TypeError, EOFError, RuntimeError,
            zipfile.BadZipFile, tokenize.TokenError) as exc:
        raise CheckpointError(f"malformed checkpoint {path}: {exc}") from exc
    if config_hash(config) != stored_hash:
        raise CheckpointError(f"checkpoint {path}: config hash mismatch")
    return MlpNetwork(layers), config, stored_hash


def _param(bundle, name: str, shape: tuple[int, int]) -> np.ndarray:
    """Array ``name`` of ``bundle`` as float64, of the ``shape`` that layer_dims gives it;
    a stored float64 array is the one ``np.load`` read, not a second copy."""
    array = np.asarray(bundle[name], dtype=np.float64)
    if array.shape != shape:
        raise CheckpointError(f"{name} has shape {array.shape}, layer_dims needs {shape}")
    return array
