"""Backpropagation reference models: pairwise discriminator and classic classifier.

Both are batch steps of :func:`ffnet.ff.fit` in one stage that reports the
last layer, with every layer's gradient chain-ruled through the whole stack
(normalization included). The pairwise model consumes the same linked
(sample + one-hot label) rows as forward-forward training, in the same
label-factored form (each sample's pixels once plus the label of every row;
see :func:`~ffnet.nn.forward_pass`), and applies the same logistic goodness
loss, but only at the last layer. The classic model is a plain MLP on raw
inputs with a linear label head and softmax cross-entropy; its history has
nan goodness means.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from .data import Dataset, make_linked_batches, make_plain_batches, one_hot
from .errors import ShapeError
from .ff import FfConfig, check_train_size, ff_loss_and_coeffs, fit, goodness
from .nn import MlpNetwork, forward_pass, full_backprop_grad


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
    check_train_size(ds.n, "bp_pairwise")
    last = net.depth - 1

    def step(batch, layers, stats):
        trace = forward_pass(net, batch.images, linked_labels=batch.linked_labels)
        loss, output_grad = ff_loss_and_coeffs(
            trace, last, 0.0, cfg.theta, batch.polarity
        )
        stats.record(last, loss, goodness(trace, last), batch.polarity)
        grads = full_backprop_grad(net, batch.images, output_grad, trace=trace)
        return [(i, grad_w, grad_b) for i, (grad_w, grad_b) in enumerate(grads)]

    batches = partial(
        make_linked_batches, ds, batch_size=cfg.batch_size,
        negatives_per_positive=cfg.negatives_per_positive,
    )
    return fit(net, cfg, [[last]], batches, step, "bp_pairwise", on_epoch)


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
    check_train_size(ds.n, "bp_classic")
    last = net.depth - 1

    def step(batch, layers, stats):
        images, labels = batch
        trace = forward_pass(net, images, normalize=normalize, final_linear=True)
        loss, d_logits = softmax_cross_entropy(trace.act[-1], labels)
        stats.record(last, loss)
        grads = full_backprop_grad(
            net, images, d_logits, normalize=normalize, final_linear=True, trace=trace
        )
        return [(i, grad_w, grad_b) for i, (grad_w, grad_b) in enumerate(grads)]

    batches = partial(make_plain_batches, ds, batch_size=cfg.batch_size)
    return fit(net, cfg, [[last]], batches, step, "bp_classic", on_epoch)
