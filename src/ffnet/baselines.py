"""Backpropagation reference models: pairwise discriminator and classic classifier.

Both are batch steps of :func:`ffnet.ff.fit` in one stage that reports the
last layer, with every layer's gradient chain-ruled through the whole stack.
The pairwise model consumes the same linked (sample + one-hot label) rows as
forward-forward training, in the same label-factored form (each sample's
pixels once plus the label of every row; see :func:`~ffnet.nn.forward_pass`),
normalization included, and takes the same goodness loss from
:func:`~ffnet.ff.goodness_loss` (gamma 0), but only at the last layer. The
classic model is a plain MLP on raw inputs, with no normalization, a linear
label head and softmax cross-entropy; its history has nan goodness means.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

import numpy as np

from .data import N_LABELS, Dataset, make_linked_batches, make_plain_batches, one_hot
from .errors import ShapeError
from .ff import (
    FfConfig, activity_coeffs, check_split_size, fit, goodness_loss,
    score_rows, voting_error,
)
from .nn import MlpNetwork, backprop_updates, forward_pass


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
    check_split_size(ds.n, "training")
    last = net.depth - 1

    def step(batch, layers, stats):
        trace = forward_pass(net, batch.images, linked_labels=batch.linked_labels)
        g = trace.goodness[last]
        loss, d_g = goodness_loss(g, 0.0, batch.polarity, "sigmoid_goodness", cfg.theta)
        stats.record(last, loss, g, batch.polarity)
        return backprop_updates(net, trace, activity_coeffs(trace.act[last], d_g))

    batches = partial(make_linked_batches, ds, batch_size=cfg.batch_size)
    return fit(net, cfg, [[last]], batches, step, "bp_pairwise", on_epoch)


def classic_logits(net: MlpNetwork, images, idx=None) -> np.ndarray:
    """(n, N_LABELS) label-head logits; :func:`~ffnet.ff.score_rows` reads the rows.
    Each pass keeps only the head, so it holds about one hidden layer's arrays
    of the block at a time."""
    head = (net.depth - 1,)

    def score(block, out):
        trace = forward_pass(net, block, normalize=False, final_linear=True, keep=head)
        out[:] = trace.act[-1]

    return score_rows(images, idx, (N_LABELS,), score)


def classic_test_error(net: MlpNetwork, ds: Dataset) -> float:
    """Misclassified fraction: the logits vote as one layer (:func:`~ffnet.ff.vote`)."""
    check_split_size(ds.n, "test")
    return voting_error(classic_logits(net, ds)[:, :, None], ds.labels, [0])


def train_classic(
    net: MlpNetwork,
    ds: Dataset,
    cfg: FfConfig,
    on_epoch: Optional[Callable[[int, MlpNetwork], None]] = None,
) -> tuple[MlpNetwork, list[dict]]:
    """Softmax cross-entropy classifier on raw inputs.

    ``net`` must end in a label-width linear head (the last layer is kept
    un-rectified), and its hidden layers are not normalized, as in a standard
    MLP: every pass runs ``normalize=False, final_linear=True``.
    """
    check_split_size(ds.n, "training")
    last = net.depth - 1

    def step(batch, layers, stats):
        images, labels = batch
        trace = forward_pass(net, images, normalize=False, final_linear=True)
        loss, d_logits = softmax_cross_entropy(trace.act[-1], labels)
        stats.record(last, loss)
        return backprop_updates(net, trace, d_logits)

    batches = partial(make_plain_batches, ds, batch_size=cfg.batch_size)
    return fit(net, cfg, [[last]], batches, step, "bp_classic", on_epoch)
