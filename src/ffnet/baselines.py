"""Backpropagation reference models: pairwise discriminator and classic classifier.

The pairwise model consumes the same linked (sample + one-hot label) inputs
as forward-forward training and applies the same logistic goodness loss,
but only at the last layer, with gradients chain-ruled through the whole
stack (normalization included). The classic model is a plain MLP on raw
inputs with a linear label head and softmax cross-entropy.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .data import Dataset, make_linked_batches, make_plain_batches, one_hot
from .errors import ShapeError
from .ff import FfConfig, _EpochStats, ff_loss_and_coeffs, goodness
from .linalg import make_rng
from .nn import (
    MlpNetwork,
    apply_adam_update,
    forward_pass,
    full_backprop_grad,
    make_adam_states,
)
from .reports import history_row


def softmax_cross_entropy(logits, labels) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient w.r.t. the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise ShapeError(
            f"logits {logits.shape} incompatible with labels {labels.shape}"
        )
    m = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_z
    loss = float(-np.mean(log_probs[np.arange(m), labels]))
    d_logits = (np.exp(log_probs) - one_hot(labels, logits.shape[1])) / m
    return loss, d_logits


def train_pairwise(
    net: MlpNetwork,
    ds: Dataset,
    cfg: FfConfig,
    on_epoch: Optional[Callable[[int, MlpNetwork], None]] = None,
) -> tuple[MlpNetwork, list[dict]]:
    """Backprop the last layer's goodness loss (gamma 0) through every layer."""
    rng = make_rng(cfg.seed)
    states = make_adam_states(net, cfg.learning_rate)
    last = net.depth - 1
    history: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        stats = _EpochStats(net.depth)
        for batch in make_linked_batches(
            ds, rng, cfg.batch_size, cfg.negatives_per_positive
        ):
            trace = forward_pass(net, batch.inputs)
            loss, output_grad = ff_loss_and_coeffs(
                trace, last, 0.0, cfg.theta, batch.polarity
            )
            stats.record(last, loss, goodness(trace, last), batch.polarity)
            grads = full_backprop_grad(net, batch.inputs, output_grad, trace=trace)
            for i, (grad_w, grad_b) in enumerate(grads):
                apply_adam_update(net, i, grad_w, grad_b, states)
        history.extend(stats.rows(epoch, "bp_pairwise", [last]))
        if on_epoch is not None:
            on_epoch(epoch, net)
    return net, history


def classic_logits(net: MlpNetwork, images, normalize: bool = False) -> np.ndarray:
    trace = forward_pass(net, images, normalize=normalize, final_linear=True)
    return trace.act[-1]


def classic_predict(net: MlpNetwork, images, normalize: bool = False) -> np.ndarray:
    return np.argmax(classic_logits(net, images, normalize), axis=1)


def classic_test_error(net: MlpNetwork, ds: Dataset, normalize: bool = False) -> float:
    preds = classic_predict(net, ds.images, normalize)
    return float(np.mean(preds != ds.labels))


def train_classic(
    net: MlpNetwork,
    ds: Dataset,
    cfg: FfConfig,
    normalize: bool = False,
    on_epoch: Optional[Callable[[int, MlpNetwork], None]] = None,
) -> tuple[MlpNetwork, list[dict]]:
    """Softmax cross-entropy classifier on raw inputs.

    ``net`` must end in a label-width linear head (the last layer is kept
    un-rectified). Inter-layer normalization is off by default, matching a
    standard MLP; pass normalize=True for the ablation variant.
    """
    rng = make_rng(cfg.seed)
    states = make_adam_states(net, cfg.learning_rate)
    history: list[dict] = []
    for epoch in range(1, cfg.epochs + 1):
        loss_sum, batches = 0.0, 0
        for images, labels in make_plain_batches(ds, rng, cfg.batch_size):
            trace = forward_pass(net, images, normalize=normalize, final_linear=True)
            loss, d_logits = softmax_cross_entropy(trace.act[-1], labels)
            if not np.isfinite(loss):
                raise FloatingPointError("classic loss diverged")
            grads = full_backprop_grad(
                net, images, d_logits, normalize=normalize, final_linear=True, trace=trace
            )
            for i, (grad_w, grad_b) in enumerate(grads):
                apply_adam_update(net, i, grad_w, grad_b, states)
            loss_sum += loss
            batches += 1
        nan = float("nan")
        mean_loss = loss_sum / max(batches, 1)
        history.append(
            history_row(epoch, net.depth, "bp_classic", "train", mean_loss, nan, nan)
        )
        if on_epoch is not None:
            on_epoch(epoch, net)
    return net, history
