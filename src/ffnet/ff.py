"""Goodness-based layer-local training and its collaborative variant.

A layer's goodness for a linked input is the squared sum of its ReLU
activities. Each layer is trained to push goodness above a threshold theta
on positive rows and below it on negative rows, through the logistic
probability

    p = sigmoid(g + gamma - theta)

where ``gamma`` is a per-sample sum of *detached* goodness values from other
layers. gamma only shifts the effective threshold, so no gradient flows
through it; that shift is what lets a layer react to the rest of the
network without any backward pass.

:func:`fit` is the one training loop, of :func:`train` and of the backprop
baselines alike; a method gives it only its stages, batches and batch step.
For :func:`train` a schedule is a list of stages, each the layers its
batches update (:func:`schedule_stages`), run for the full epoch budget
each: ``layerwise`` is ``[[0], [1], ...]``, one layer at a time, and
``alternating`` is ``[[0, ..., depth-1]]``, every layer on every batch.
Inference scores the sample linked with each candidate label, sums goodness
over a layer mask, and votes by the largest sum.

Neither training nor evaluation builds linked inputs. The first layer's
pre-activation of a sample ``x`` linked with label ``y`` is
``x @ W_pix + (W_lab[y] + b)`` (``nn.first_layer_factors``), so a sample's
pixel product is computed once and shared by all its linked rows: the
positive and negative rows of a training batch (``nn.forward_pass`` and,
for layer 1's gradient, ``nn.layer_local_grad``, both given the batch's
``linked_labels``) and the candidate labels of an evaluation pass.
Predictions, subset errors, entropy tables and test-split losses are all
reductions of the goodness tensor of :func:`label_goodness_scores`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

import numpy as np
from scipy.special import expit

from .data import N_LABELS, Dataset, LinkedBatch, make_linked_batches
from .errors import ConfigError, EstimationError, ShapeError
from .linalg import as_matrix, make_rng, row_sumsq
from .nn import (
    ForwardTrace,
    MlpNetwork,
    apply_adam_update,
    first_layer_factors,
    forward_from_pre,
    forward_pass,
    layer_local_grad,
    make_adam_states,
)
from .reports import history_row

GAMMA_MODES = ("none", "all_other_layers", "predecessors_only")
SCHEDULES = ("layerwise", "alternating")
LOSS_KINDS = ("sigmoid_goodness", "entropy")

# Open-interval clamp for probabilities; the loss itself is evaluated in
# log-space so this never touches the gradient path.
_P_FLOOR = np.finfo(np.float64).tiny
_P_CEIL = np.nextafter(1.0, 0.0)

# Keeps h = g + gamma strictly positive inside the entropy objective.
_ENTROPY_H_FLOOR = 1e-12

# Samples per forward pass in label_goodness_scores. It bounds peak memory,
# and at 794-500-500-500 a block's activations (1 MB) stay in a core's L2.
SCORE_CHUNK = 256


@dataclass
class FfConfig:
    """Knobs for one forward-forward training run."""

    theta: float = 10.0
    gamma_mode: str = "none"
    schedule: str = "layerwise"
    loss_kind: str = "sigmoid_goodness"
    epochs: int = 150
    batch_size: int = 200
    learning_rate: float = 0.001
    seed: int = 0
    negatives_per_positive: int = 1

    def __post_init__(self) -> None:
        if not np.isfinite(self.theta):
            raise ConfigError(f"theta must be finite, got {self.theta}")
        if self.gamma_mode not in GAMMA_MODES:
            raise ConfigError(
                f"gamma_mode must be one of {GAMMA_MODES}, got {self.gamma_mode!r}"
            )
        if self.schedule not in SCHEDULES:
            raise ConfigError(
                f"schedule must be one of {SCHEDULES}, got {self.schedule!r}"
            )
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(
                f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}"
            )
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.loss_kind == "entropy" and self.batch_size < 2:
            raise ConfigError(
                "the entropy objective needs 2 samples per batch, "
                f"got batch_size {self.batch_size}"
            )
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.negatives_per_positive < 1:
            raise ConfigError(
                f"negatives_per_positive must be >= 1, got {self.negatives_per_positive}"
            )


def goodness(trace: ForwardTrace, layer: int) -> np.ndarray:
    """Squared sum of the layer's ReLU activities, per sample."""
    return row_sumsq(trace.act[layer])


def goodness_table(trace: ForwardTrace) -> np.ndarray:
    """(m, layers computed) goodness; plain values, so any gamma from them is detached."""
    return np.column_stack([goodness(trace, i) for i in range(trace.depth)])


def positive_prob(g, gamma=0.0, theta=0.0):
    """Probability that a sample is positive given goodness ``g``.

    The logit is computed as g - (theta - gamma), never as (g + gamma) -
    theta: folding gamma into the threshold first makes the identity
    positive_prob(g, gamma, theta) == positive_prob(g, 0, theta - gamma)
    hold bitwise, which the stop-gradient equivalence tests rely on.
    """
    logit = np.asarray(g, dtype=np.float64) - (
        np.asarray(theta, dtype=np.float64) - np.asarray(gamma, dtype=np.float64)
    )
    return np.clip(expit(logit), _P_FLOOR, _P_CEIL)


def compute_gamma(values: np.ndarray, layer: int, mode: str) -> np.ndarray:
    """Detached goodness offset for one layer from an (m, depth) goodness table."""
    m, depth = values.shape
    if not 0 <= layer < depth:
        raise ShapeError(f"layer {layer} outside table depth {depth}")
    if mode == "none":
        return np.zeros(m)
    if mode == "all_other_layers":
        return values.sum(axis=1) - values[:, layer]
    if mode == "predecessors_only":
        return values[:, :layer].sum(axis=1)
    raise ConfigError(f"unknown gamma mode {mode!r}")


def _batch(g, polarity) -> tuple[np.ndarray, np.ndarray]:
    g = np.asarray(g, dtype=np.float64)
    polarity = np.asarray(polarity, dtype=np.float64)
    if polarity.shape != g.shape:
        raise ShapeError(
            f"polarity shape {polarity.shape} does not match batch of {g.shape[0]}"
        )
    return g, polarity


def ff_loss(g, gamma, theta, polarity) -> tuple[float, np.ndarray]:
    """Batch-mean logistic goodness loss and its derivatives with respect to g.

    Positive rows contribute -log sigmoid(g + gamma - theta), negative rows
    -log sigmoid(-(g + gamma - theta)).
    """
    g, polarity = _batch(g, polarity)
    # Same threshold-first form as positive_prob; see its docstring.
    logit = g - (np.asarray(theta, dtype=np.float64) - np.asarray(gamma, dtype=np.float64))
    signed = polarity * logit
    loss = float(np.mean(np.logaddexp(0.0, -signed)))
    # d/d logit of softplus(-polarity * logit) = -polarity * sigmoid(-signed)
    d_logit = -polarity * expit(-signed)
    return loss, d_logit / g.shape[0]


def entropy_objective(g, gamma, polarity) -> tuple[float, np.ndarray]:
    """Batch entropy objective over h = g + gamma and its derivatives with respect to g.

    The objective Ent(h) = mean(h * log(h / mean(h))) is estimated separately
    over the positive and the negative rows, each with its own mean, and the
    returned scalar is Ent(positive) - Ent(negative): training *maximizes*
    it, mirroring the push-up/push-down convention of the sigmoid loss; a
    minimizer must negate both outputs. Uses d Ent/d h_s = log(h_s / mean(h)) / m
    (the remaining terms cancel).
    """
    g, polarity = _batch(g, polarity)
    gamma = np.broadcast_to(np.asarray(gamma, dtype=np.float64), g.shape)
    h = g + gamma + _ENTROPY_H_FLOOR
    d_h = np.zeros_like(h)
    objective = 0.0
    for sign, mask in ((1.0, polarity > 0), (-1.0, polarity < 0)):
        count = int(mask.sum())
        if count == 0:
            continue
        if count < 2:
            raise EstimationError(
                "entropy objective needs at least 2 samples per polarity, "
                f"got {count}"
            )
        h_part = h[mask]
        log_ratio = np.log(h_part / h_part.mean())
        objective += sign * float(np.mean(h_part * log_ratio))
        d_h[mask] = sign * log_ratio / count
    return objective, d_h


def ff_loss_and_coeffs(
    trace: ForwardTrace, layer: int, gamma, theta, polarity
) -> tuple[float, np.ndarray]:
    """:func:`ff_loss` of one traced layer; d(loss)/d(activity) feeds layer_local_grad."""
    act = trace.act[layer]
    loss, d_g = ff_loss(row_sumsq(act), gamma, theta, polarity)
    return loss, d_g[:, None] * 2.0 * act


def entropy_loss_and_coeffs(
    trace: ForwardTrace, layer: int, gamma, polarity
) -> tuple[float, np.ndarray]:
    """:func:`entropy_objective` of one traced layer, with d(objective)/d(activity)."""
    act = trace.act[layer]
    objective, d_h = entropy_objective(row_sumsq(act), gamma, polarity)
    return objective, d_h[:, None] * 2.0 * act


def descent_loss(g, gamma, cfg: FfConfig, polarity) -> tuple[float, np.ndarray]:
    """Loss to minimize under ``cfg.loss_kind`` and its derivatives with respect to g."""
    if cfg.loss_kind == "sigmoid_goodness":
        return ff_loss(g, gamma, cfg.theta, polarity)
    objective, ascent = entropy_objective(g, gamma, polarity)
    return -objective, -ascent


def _layer_step(net, trace, table, layer: int, cfg: FfConfig, batch: LinkedBatch):
    """Descent loss and parameter gradients of one layer on one batch."""
    gamma = compute_gamma(table, layer, cfg.gamma_mode)
    loss, d_g = descent_loss(table[:, layer], gamma, cfg, batch.polarity)
    coeffs = d_g[:, None] * 2.0 * trace.act[layer]
    return loss, layer_local_grad(
        net.layers[layer],
        trace.layer_input(layer),
        trace.act[layer],
        coeffs,
        batch.linked_labels if layer == 0 else None,
    )


class _EpochStats:
    """Accumulates one epoch's per-layer loss and goodness means across batches."""

    def __init__(self, depth: int, epoch: int):
        self.epoch = epoch
        self.loss_sum = np.zeros(depth)
        self.batches = np.zeros(depth, dtype=np.int64)
        self.good_pos = np.zeros(depth)
        self.good_neg = np.zeros(depth)
        self.n_pos = np.zeros(depth, dtype=np.int64)
        self.n_neg = np.zeros(depth, dtype=np.int64)

    def record(self, layer: int, loss: float, g=None, polarity=None):
        """Add one batch's loss and goodness; without ``g`` the layer's
        goodness means are nan."""
        if not np.isfinite(loss):
            raise FloatingPointError(
                f"non-finite loss at layer {layer + 1} in epoch {self.epoch}; "
                "training diverged"
            )
        self.loss_sum[layer] += loss
        self.batches[layer] += 1
        if g is None:
            self.good_pos[layer] = self.good_neg[layer] = np.nan
            return
        pos = polarity > 0
        self.good_pos[layer] += g[pos].sum()
        self.good_neg[layer] += g[~pos].sum()
        self.n_pos[layer] += int(pos.sum())
        self.n_neg[layer] += int((~pos).sum())

    def rows(self, loss_kind: str, layers, split: str = "train") -> list[dict]:
        return [
            history_row(
                self.epoch,
                i + 1,
                loss_kind,
                split,
                self.loss_sum[i] / max(self.batches[i], 1),
                self.good_pos[i] / max(self.n_pos[i], 1),
                self.good_neg[i] / max(self.n_neg[i], 1),
            )
            for i in layers
        ]


def schedule_stages(schedule: str, depth: int) -> list[list[int]]:
    """The layers each stage of ``schedule`` updates, stage by stage."""
    if schedule == "layerwise":
        return [[i] for i in range(depth)]
    if schedule == "alternating":
        return [list(range(depth))]
    raise ConfigError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")


def check_train_size(n: int, loss_kind: str) -> None:
    """Reject a training split too small for every epoch to train a batch: that
    takes 1 sample, or 2 under the entropy objective, which skips a batch with
    fewer than 2 rows of one polarity."""
    if loss_kind == "entropy" and n < 2:
        raise ConfigError(f"the entropy objective needs 2 training samples, got {n}")
    if n < 1:
        raise ConfigError(f"training needs 1 training sample, got {n}")


def fit(
    net: MlpNetwork,
    cfg: FfConfig,
    stages: list[list[int]],
    batches: Callable[[np.random.Generator], Iterable],
    step: Callable[[object, list[int], _EpochStats], list[tuple]],
    loss_kind: str,
    on_epoch: Optional[Callable[[int, MlpNetwork], None]] = None,
) -> tuple[MlpNetwork, list[dict]]:
    """Run each stage's ``layers`` for ``cfg.epochs`` epochs of ``batches(rng)``.

    ``rng`` is seeded with ``cfg.seed``. ``step(batch, layers, stats)``
    records the batch's losses in ``stats``, which rejects a non-finite one,
    and returns ``(layer, grad_w, grad_b)`` updates computed from the
    pre-batch parameters, which Adam applies in order; ``[]`` skips the
    batch. Epochs are counted across stages: the ``e``-th epoch of stage
    ``s`` is epoch ``s * cfg.epochs + e``, which numbers its history rows,
    its divergence message and its ``on_epoch(epoch, net)`` call.
    """
    rng = make_rng(cfg.seed)
    states = make_adam_states(net, cfg.learning_rate)
    history: list[dict] = []
    for stage, layers in enumerate(stages):
        for epoch in range(stage * cfg.epochs + 1, (stage + 1) * cfg.epochs + 1):
            stats = _EpochStats(net.depth, epoch)
            for batch in batches(rng):
                for i, grad_w, grad_b in step(batch, layers, stats):
                    apply_adam_update(net, i, grad_w, grad_b, states)
            history.extend(stats.rows(loss_kind, layers))
            if on_epoch is not None:
                on_epoch(epoch, net)
    return net, history


def train(
    net: MlpNetwork,
    ds: Dataset,
    cfg: FfConfig,
    on_epoch: Optional[Callable[[int, MlpNetwork], None]] = None,
) -> tuple[MlpNetwork, list[dict]]:
    """:func:`fit` the stages of ``cfg.schedule`` on linked batches.

    A batch takes one forward pass on the pre-batch parameters, and every
    staged layer's gamma and gradient come from that trace. Layers outside
    the stage stay frozen but still feed gamma: the predecessors under
    ``predecessors_only``, all other layers under ``all_other_layers``. The
    entropy objective skips a batch with fewer than 2 rows of one polarity
    (a trailing one-sample batch).
    """
    check_train_size(ds.n, cfg.loss_kind)
    depth = net.depth

    def step(batch: LinkedBatch, layers: list[int], stats: _EpochStats):
        pos = batch.polarity > 0
        if cfg.loss_kind == "entropy" and min(pos.sum(), (~pos).sum()) < 2:
            return []
        # Successor activations are only needed when they feed gamma.
        upto = depth if cfg.gamma_mode == "all_other_layers" else layers[-1] + 1
        trace = forward_pass(net, batch.images, upto, linked_labels=batch.linked_labels)
        table = goodness_table(trace)
        steps = [_layer_step(net, trace, table, i, cfg, batch) for i in layers]
        for i, (loss, _) in zip(layers, steps):
            stats.record(i, loss, table[:, i], batch.polarity)
        return [(i, grad_w, grad_b) for i, (_, (grad_w, grad_b)) in zip(layers, steps)]

    batches = partial(
        make_linked_batches, ds, batch_size=cfg.batch_size,
        negatives_per_positive=cfg.negatives_per_positive,
    )
    stages = schedule_stages(cfg.schedule, depth)
    return fit(net, cfg, stages, batches, step, cfg.loss_kind, on_epoch)


def checked_layers(mask, depth: int) -> list[int]:
    """Sorted 0-based voting layers; None means all. Rejects empty or out-of-range sets."""
    if mask is None:
        return list(range(depth))
    layers = sorted(int(i) for i in mask)
    if not layers:
        raise ConfigError("layer set must be nonempty")
    if layers[0] < 0 or layers[-1] >= depth:
        raise ConfigError(f"layer set {layers} outside network depth {depth}")
    return layers


def checked_labels(labels) -> list[int]:
    """Sorted candidate labels. Rejects an empty set or a label outside 0..N_LABELS-1."""
    candidates = sorted(int(y) for y in labels)
    if not candidates:
        raise ConfigError("candidate label set must be nonempty")
    if candidates[0] < 0 or candidates[-1] >= N_LABELS:
        raise ConfigError(f"candidate labels {candidates} outside 0..{N_LABELS - 1}")
    return candidates


def label_goodness_scores(net: MlpNetwork, images, labels=range(N_LABELS)) -> np.ndarray:
    """(n, len(labels), depth) goodness of every layer for every sample linked with
    every candidate label, sorted.

    Each block of samples takes one pixel product, and each candidate adds
    its offset row (``nn.first_layer_factors``) to it before running the
    remaining layers.
    """
    images = as_matrix(images)
    candidates = checked_labels(labels)
    pixel_rows, offsets = first_layer_factors(net, images.shape[1])
    offsets = offsets[candidates]
    n = images.shape[0]
    scores = np.empty((n, len(candidates), net.depth))
    for start in range(0, n, SCORE_CHUNK):
        rows = slice(start, start + SCORE_CHUNK)
        pixel_pre = images[rows] @ pixel_rows
        for col, offset in enumerate(offsets):
            # One trace alive at a time keeps the chunk's arrays in cache.
            scores[rows, col] = goodness_table(forward_from_pre(net, pixel_pre + offset))
    return scores


def vote(scores: np.ndarray, layers) -> np.ndarray:
    """Column of the best candidate by goodness summed over ``layers``; ties go first."""
    total = np.zeros(scores.shape[:2])
    for i in layers:
        total += scores[:, :, i]
    return np.argmax(total, axis=1)


def voting_error(scores: np.ndarray, labels, layers) -> float:
    """Misclassified fraction under a vote over ``layers``; scores cover every label."""
    return float(np.mean(vote(scores, layers) != labels))


def linked_goodness(scores: np.ndarray, labels) -> np.ndarray:
    """(n, depth) goodness of each sample linked with its entry of ``labels``."""
    return scores[np.arange(scores.shape[0]), labels]


def predict(net: MlpNetwork, images, labels=range(N_LABELS), mask=None) -> np.ndarray:
    """Goodness-voting prediction for a batch of raw samples."""
    candidates = np.array(checked_labels(labels), dtype=np.int64)
    layers = checked_layers(mask, net.depth)
    return candidates[vote(label_goodness_scores(net, images, candidates), layers)]


def infer(net: MlpNetwork, x, labels=range(N_LABELS), mask=None) -> int:
    """Predicted label for one raw (unlinked) sample."""
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return int(predict(net, x, labels, mask)[0])


def test_error(net: MlpNetwork, ds: Dataset, mask=None) -> float:
    """Fraction of misclassified samples under goodness voting."""
    layers = checked_layers(mask, net.depth)
    return voting_error(label_goodness_scores(net, ds.images), ds.labels, layers)
