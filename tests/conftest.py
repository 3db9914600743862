"""Shared fixtures and finite-difference helpers."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from ffnet import init_network, make_rng
from ffnet.checkpoint import config_hash, save_checkpoint
from ffnet.data import write_idx
from ffnet.nn import DenseLayer, ForwardTrace, MlpNetwork, forward_from_pre
from ffnet.runner import RunConfig
from ffnet.synth import synthetic_dataset

# Arguments at and around the edges of exp: zeros, infinities, NaN, exp's
# overflow threshold (about 709.7827), where exp(-x) underflows, the largest
# and the smallest floats.
SIGMOID_EDGES = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, 709.78, -709.78, -709.79,
    745.0, -745.0, 1e308, -1e308, 5e-324, -5e-324,
])

# The methods whose objective reads theta; any other method's run rejects a
# theta other than the default.
THETA_METHODS = ("ff", "collab_ff", "bp_pairwise")


def theta_for(method: str, theta: float) -> float:
    """``theta`` for a method that reads it, else the default it must keep."""
    return theta if method in THETA_METHODS else RunConfig.theta


def fd_grad(loss_fn, param: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of ``loss_fn()`` w.r.t. ``param`` in place."""
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = param[idx]
        h = step * max(1.0, abs(orig))
        param[idx] = orig + h
        up = loss_fn()
        param[idx] = orig - h
        down = loss_fn()
        param[idx] = orig
        grad[idx] = (up - down) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-6) -> np.ndarray:
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


def agreement(analytic, numeric, tol: float = 1e-5) -> float:
    """Fraction of entries whose relative error is within ``tol``."""
    a = np.concatenate([x.ravel() for x in analytic])
    n = np.concatenate([x.ravel() for x in numeric])
    return float(np.mean(rel_err(a, n) <= tol))


def random_net(dims, seed: int = 0):
    """Glorot net with biases nudged positive to keep ReLUs off the boundary."""
    rng = make_rng(seed)
    net = init_network(dims, rng)
    for layer in net.layers:
        layer.biases = layer.biases + rng.uniform(0.02, 0.08, layer.biases.shape)
    return net


def random_batch(rng, m: int, d: int) -> np.ndarray:
    return rng.uniform(0.05, 1.0, size=(m, d))


def trace_from_activities(act: np.ndarray) -> ForwardTrace:
    """Minimal single-layer trace for loss functions that only read act: the
    forward loop takes ``act`` as a classic net's logits, as they are, and
    records its goodness."""
    act = np.asarray(act, dtype=np.float64)
    width = act.shape[1]
    head = MlpNetwork([DenseLayer(np.zeros((1, width)), np.zeros((1, width)))])
    trace = forward_from_pre(head, act, classic=True)
    trace.inputs = np.zeros((act.shape[0], 1))
    return trace


def traced_peak(fn) -> int:
    """Peak of the memory tracemalloc traces while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def store_arrays(path, net, changes) -> None:
    """A checkpoint of ``net`` with an empty config whose arrays are replaced or
    added by ``changes`` (array name -> array)."""
    save_checkpoint(path, net, {})
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    with open(path, "wb") as handle:
        np.savez(handle, **{**arrays, **changes})


def store_config(path, net, config, text=None) -> None:
    """A checkpoint of ``net`` whose config is any JSON value, its hash matching;
    given ``text``, the stored config is that text instead."""
    text = json.dumps(config) if text is None else text
    store_arrays(path, net, {
        "config_json": np.frombuffer(text.encode(), dtype=np.uint8),
        "config_hash": np.frombuffer(config_hash(config).encode(), dtype=np.uint8),
    })


def damaged_checkpoint(path, damage: str) -> None:
    """A checkpoint of a 794-8-6 net, damaged where neither zipfile nor NumPy raises
    a ValueError. ``compression``: the first central-directory entry names
    compression method 99 (zipfile raises NotImplementedError). ``npy_header``:
    the ``}`` closing the header dict of ``weights_0.npy`` is a space (NumPy's
    header parser raises tokenize.TokenError)."""
    save_checkpoint(path, init_network([794, 8, 6], make_rng(0)), {"method": "ff"})
    raw = bytearray(path.read_bytes())
    if damage == "compression":
        entry = raw.index(b"PK\x01\x02")
        raw[entry + 10:entry + 12] = (99).to_bytes(2, "little")
    else:
        raw[raw.index(b"}", raw.index(b"weights_0.npy"))] = ord(" ")
    path.write_bytes(bytes(raw))


def write_mnist_fixture(root, name: str = "mnist", n_train: int = 240, n_test: int = 120) -> None:
    """A tiny synthetic stand-in for MNIST as IDX ``.gz`` files in ``root/name``."""
    mnist_dir = root / name
    mnist_dir.mkdir(parents=True)
    for prefix, n, split in (("train", n_train, "train"), ("t10k", n_test, "test")):
        ds = synthetic_dataset(n, d=784, seed=20, split=split, name=name)
        images = (ds.images * 255.0).round().astype(np.uint8).reshape(-1, 28, 28)
        write_idx(mnist_dir / f"{prefix}-images-idx3-ubyte.gz", images)
        write_idx(mnist_dir / f"{prefix}-labels-idx1-ubyte.gz", ds.labels.astype(np.uint8))


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    """A warm cache directory holding the tiny MNIST stand-in; read-only."""
    root = tmp_path_factory.mktemp("data")
    write_mnist_fixture(root)
    return root


@pytest.fixture
def rng():
    return make_rng(1234)


@pytest.fixture(scope="session")
def small_trained_net():
    """Collaborative FF net trained on synthetic data, shared read-only."""
    from ffnet.ff import FfConfig, train
    from ffnet.synth import synthetic_pair

    train_ds, test_ds = synthetic_pair(400, 160, d=24, seed=13)
    cfg = FfConfig(
        theta=4.0, epochs=8, batch_size=40, seed=2,
        schedule="alternating", gamma_mode="all_other_layers",
    )
    net = init_network([34, 24, 18, 12], make_rng(2))
    net, _ = train(net, train_ds, cfg)
    return net, train_ds, test_ds
