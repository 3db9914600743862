"""Shared fixtures and finite-difference helpers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from ffnet import init_network, make_rng
from ffnet.checkpoint import config_hash, save_checkpoint
from ffnet.data import write_idx
from ffnet.nn import ForwardTrace
from ffnet.synth import synthetic_dataset


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
    """Minimal single-layer trace for loss functions that only read act."""
    act = np.asarray(act, dtype=np.float64)
    return ForwardTrace(inputs=np.zeros((act.shape[0], 1)), act=[act])


def store_config(path, net, config, text=None) -> None:
    """A checkpoint of ``net`` whose config is any JSON value, its hash matching;
    given ``text``, the stored config is that text instead."""
    save_checkpoint(path, net, {})
    with np.load(path) as bundle:
        arrays = {k: bundle[k] for k in bundle.files}
    text = json.dumps(config) if text is None else text
    arrays["config_json"] = np.frombuffer(text.encode(), dtype=np.uint8)
    arrays["config_hash"] = np.frombuffer(config_hash(config).encode(), dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def write_mnist_fixture(root) -> None:
    """A tiny synthetic stand-in for MNIST as IDX ``.gz`` files in ``root/mnist``."""
    mnist_dir = root / "mnist"
    mnist_dir.mkdir(parents=True)
    for prefix, n, split in (("train", 240, "train"), ("t10k", 120, "test")):
        ds = synthetic_dataset(n, d=784, seed=20, split=split, name="mnist")
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
