"""Goodness-based layer-local training and its collaborative variant.

A layer's goodness for a linked input is the squared sum of its ReLU
activities; the forward pass records it (``ForwardTrace.goodness``), and
every reader here reads it there. Each layer is trained to push goodness
above a threshold theta on positive rows and below it on negative rows,
through the logistic probability

    p = sigmoid(g + gamma - theta)

where ``gamma`` is a per-sample sum of *detached* goodness values from other
layers. gamma only shifts the effective threshold, so no gradient flows
through it; that shift is what lets a layer react to the rest of the
network without any backward pass. :func:`goodness_loss` states this objective
(or the entropy one) once, and :func:`activity_coeffs` its chain rule to the
layer's pre-activation, the gradient every ``nn`` function takes.

:func:`fit` is the one training loop, of :func:`train` and of the backprop
baselines alike; a method gives it only its stages, batches and batch step.
For :func:`train` a schedule is a list of stages, each the layers its
batches update (:func:`schedule_stages`), run for the full epoch budget
each: ``layerwise`` is ``[[0], [1], ...]``, one layer at a time, and
``alternating`` is ``[[0, ..., depth-1]]``, every layer on every batch.
Inference scores the sample linked with each of the ten labels, sums
goodness over every layer, and votes by the largest sum; a vote by a
subset of layers is :mod:`ffnet.analysis`'s.

Neither training nor evaluation builds linked inputs. The first layer's
pre-activation of a sample ``x`` linked with label ``y`` is
``x @ W_pix + (W_lab[y] + b)`` (``nn.first_layer_factors`` returns a
batch's pixel products and the label offsets), so a sample's pixel
product is computed once and shared by all its linked rows: the positive
and negative rows of a training batch (``nn.forward_pass``, given the
batch's ``linked_labels``, and, for layer 1's gradient,
``nn.layer_local_grad``, given the same labels from the trace) and the ten
labels of an evaluation pass.
Predictions, subset errors, entropy tables and test-split losses are all
reductions of the goodness tensor of :func:`label_goodness_scores`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .data import N_LABELS, Dataset, LinkedBatch, make_linked_batches
from .errors import ConfigError, DataFormatError, DomainError, ShapeError, check_choice
from .linalg import as_matrix, make_rng, sigmoid
from .nn import (
    AdamState,
    ForwardTrace,
    MlpNetwork,
    apply_adam_update,
    first_layer_factors,
    forward_from_pre,
    forward_pass,
    layer_local_grad,
)
from .reports import HISTORY_FIELDS

GAMMA_MODES = ("none", "all_other_layers", "predecessors_only")
SCHEDULES = ("layerwise", "alternating")
LOSS_KINDS = ("sigmoid_goodness", "entropy")

# Open-interval clamp for probabilities; the loss itself is evaluated in
# log-space so this never touches the gradient path.
_P_FLOOR = np.finfo(np.float64).tiny
_P_CEIL = np.nextafter(1.0, 0.0)

# Keeps h = g + gamma strictly positive inside the entropy objective.
_ENTROPY_H_FLOOR = 1e-12
_ENTROPY_MIN_ROWS = 2  # rows of each polarity its per-polarity means need

# Samples per block of score_rows, the scoring loop of every split: a
# Dataset's float64 rows are made SCORE_CHUNK at a time through Dataset.rows,
# so scoring memory does not grow with the split, and at 794-500-500-500 a
# block's activations (1 MB) stay in a core's L2. Read at call time.
SCORE_CHUNK = 256


@dataclass
class FfConfig:
    """Knobs for one training run of any method. Every linked batch pairs each
    sample with one wrong label (:func:`~ffnet.data.make_linked_batches`), and
    the classic baseline never normalizes between layers."""

    theta: float = 10.0
    gamma_mode: str = "none"
    schedule: str = "layerwise"
    loss_kind: str = "sigmoid_goodness"
    epochs: int = 150
    batch_size: int = 200
    learning_rate: float = 0.001
    seed: int = 0

    def __post_init__(self) -> None:
        if not np.isfinite(self.theta):
            raise ConfigError(f"theta must be finite, got {self.theta}")
        check_choice("gamma_mode", self.gamma_mode, GAMMA_MODES)
        check_choice("schedule", self.schedule, SCHEDULES)
        check_choice("loss_kind", self.loss_kind, LOSS_KINDS)
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.loss_kind == "entropy" and self.batch_size < _ENTROPY_MIN_ROWS:
            raise ConfigError(
                f"the entropy objective needs {_ENTROPY_MIN_ROWS} samples per batch, "
                f"got batch_size {self.batch_size}"
            )
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def goodness_table(trace: ForwardTrace) -> np.ndarray:
    """(m, layers computed) goodness; plain values, so any gamma from them is detached."""
    return np.column_stack(trace.goodness)


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
    return np.clip(sigmoid(logit), _P_FLOOR, _P_CEIL)


def compute_gamma(values: np.ndarray, layer: int, mode: str) -> np.ndarray:
    """Detached goodness offset for one layer from an (m, depth) goodness table."""
    check_choice("gamma_mode", mode, GAMMA_MODES)
    m, depth = values.shape
    if not 0 <= layer < depth:
        raise ShapeError(f"layer {layer} outside table depth {depth}")
    if mode == "none":
        return np.zeros(m)
    if mode == "all_other_layers":
        return values.sum(axis=1) - values[:, layer]
    return values[:, :layer].sum(axis=1)


def ff_loss(g, gamma, theta, polarity) -> tuple[float, np.ndarray]:
    """Batch-mean logistic goodness loss and d(loss)/dg, on :func:`goodness_loss`'s arrays.

    Positive rows contribute -log sigmoid(g + gamma - theta), negative rows
    -log sigmoid(-(g + gamma - theta)).
    """
    # Same threshold-first form as positive_prob; see its docstring.
    logit = g - (np.asarray(theta, dtype=np.float64) - np.asarray(gamma, dtype=np.float64))
    signed = polarity * logit
    loss = float(np.mean(np.logaddexp(0.0, -signed)))
    # d/d logit of softplus(-polarity * logit) = -polarity * sigmoid(-signed)
    d_logit = -polarity * sigmoid(-signed)
    return loss, d_logit / g.shape[0]


def entropy_objective(g, gamma, polarity) -> tuple[float, np.ndarray]:
    """Entropy objective over h = g + gamma and its d/dg, on :func:`goodness_loss`'s arrays.

    The objective Ent(h) = mean(h * log(h / mean(h))) is estimated separately
    over the positive and the negative rows, each with its own mean, and the
    returned scalar is Ent(positive) - Ent(negative): training *maximizes*
    it, mirroring the push-up/push-down convention of the sigmoid loss, and
    :func:`goodness_loss` negates both outputs. Uses d Ent/d h_s = log(h_s / mean(h)) / m
    (the remaining terms cancel).
    """
    gamma = np.broadcast_to(np.asarray(gamma, dtype=np.float64), g.shape)
    h = g + gamma + _ENTROPY_H_FLOOR
    d_h = np.zeros_like(h)
    objective = 0.0
    for sign, mask in ((1.0, polarity > 0), (-1.0, polarity < 0)):
        count = int(mask.sum())
        if count == 0:
            continue
        if count < _ENTROPY_MIN_ROWS:
            raise DomainError(
                f"entropy objective needs at least {_ENTROPY_MIN_ROWS} samples per "
                f"polarity, got {count}"
            )
        h_part = h[mask]
        log_ratio = np.log(h_part / h_part.mean())
        objective += sign * float(np.mean(h_part * log_ratio))
        d_h[mask] = sign * log_ratio / count
    return objective, d_h


def goodness_loss(g, gamma, polarity, loss_kind: str, theta) -> tuple[float, np.ndarray]:
    """The loss a layer minimizes on goodness ``g``, and its derivative in g: :func:`ff_loss`
    under ``sigmoid_goodness``, the negated :func:`entropy_objective` (no theta) under
    ``entropy``."""
    check_choice("loss_kind", loss_kind, LOSS_KINDS)
    g, polarity = np.asarray(g, dtype=np.float64), np.asarray(polarity, dtype=np.float64)
    if polarity.shape != g.shape:
        raise ShapeError(
            f"polarity shape {polarity.shape} does not match batch of {g.shape[0]}"
        )
    if loss_kind == "sigmoid_goodness":
        return ff_loss(g, gamma, theta, polarity)
    objective, ascent = entropy_objective(g, gamma, polarity)
    return -objective, -ascent


def activity_coeffs(act: np.ndarray, d_g: np.ndarray) -> np.ndarray:
    """d/d(activity) of a per-row d/d(goodness), goodness being ``row_sumsq(act)``.

    It is zero wherever the ReLU is off, so it is also d/d(pre-activation),
    the gradient :func:`~ffnet.nn.layer_local_grad` and
    :func:`~ffnet.nn.backprop_updates` take."""
    return d_g[:, None] * 2.0 * act


def ff_loss_and_coeffs(
    trace: ForwardTrace, layer: int, gamma, theta, polarity
) -> tuple[float, np.ndarray]:
    """:func:`ff_loss` of one traced layer and its :func:`activity_coeffs`."""
    loss, d_g = goodness_loss(trace.goodness[layer], gamma, polarity, "sigmoid_goodness", theta)
    return loss, activity_coeffs(trace.act[layer], d_g)


def entropy_loss_and_coeffs(
    trace: ForwardTrace, layer: int, gamma, polarity
) -> tuple[float, np.ndarray]:
    """:func:`entropy_objective` of one traced layer, with d(objective)/d(activity)."""
    loss, d_g = goodness_loss(trace.goodness[layer], gamma, polarity, "entropy", None)
    return -loss, activity_coeffs(trace.act[layer], -d_g)


class EpochStats:
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
            dict(zip(HISTORY_FIELDS, (
                self.epoch,
                i + 1,
                loss_kind,
                split,
                self.loss_sum[i] / max(self.batches[i], 1),
                self.good_pos[i] / max(self.n_pos[i], 1),
                self.good_neg[i] / max(self.n_neg[i], 1),
            )))
            for i in layers
        ]


def layer_losses(table, polarity, cfg: FfConfig, layers, stats: EpochStats) -> list:
    """d(loss)/d(goodness) of ``layers`` on an (m, depth) goodness table, under
    ``cfg``'s gamma_mode, loss_kind and theta (:func:`goodness_loss`); ``stats``
    records each loss and rejects a non-finite one."""
    d_goodness = []
    for i in layers:
        gamma = compute_gamma(table, i, cfg.gamma_mode)
        loss, d_g = goodness_loss(table[:, i], gamma, polarity, cfg.loss_kind, cfg.theta)
        stats.record(i, loss, table[:, i], polarity)
        d_goodness.append(d_g)
    return d_goodness


def schedule_stages(schedule: str, depth: int) -> list[list[int]]:
    """The layers each stage of ``schedule`` updates, stage by stage."""
    check_choice("schedule", schedule, SCHEDULES)
    if schedule == "layerwise":
        return [[i] for i in range(depth)]
    return [list(range(depth))]


def check_split_size(n: int, split: str, loss_kind: str = "") -> None:
    """Reject a ``"training"`` or ``"test"`` split of ``n`` samples too small to
    use: every method needs 1, the entropy objective 2, for the per-polarity
    means of a batch or of the evaluation sample (the whole test split up to
    ``entropy_eval_n``, at least 2). A baseline or a test error alone passes
    no ``loss_kind``."""
    if n < 1:
        use = "training" if split == "training" else "evaluation"
        raise ConfigError(f"{use} needs 1 {split} sample, got {n}")
    if loss_kind == "entropy" and n < _ENTROPY_MIN_ROWS:
        raise ConfigError(
            f"the entropy objective needs {_ENTROPY_MIN_ROWS} {split} samples, got {n}"
        )


def fit(
    net: MlpNetwork,
    cfg: FfConfig,
    stages: list[list[int]],
    batches: Callable[[np.random.Generator], Iterable],
    step: Callable[[object, list[int], EpochStats], Iterator[tuple]],
    loss_kind: str,
    on_epoch: Optional[Callable[[int, MlpNetwork], None]] = None,
) -> tuple[MlpNetwork, list[dict]]:
    """Run each stage's ``layers`` for ``cfg.epochs`` epochs of ``batches(rng)``.

    ``rng`` is seeded with ``cfg.seed``. ``step(batch, layers, stats)``
    records the batch's losses in ``stats``, which rejects a non-finite one,
    and streams ``(layer, grad_w, grad_b)`` updates, each computed from the
    pre-batch parameters; a step that yields none skips the batch. Adam
    applies each update before the next is drawn, so every step (that of
    :func:`train`, and the backprop baselines'
    :func:`~ffnet.nn.backprop_updates`) holds one update at a time, and must
    not read a layer's parameters once it has yielded that layer. Epochs are
    counted across stages: the ``e``-th epoch of stage ``s`` is epoch
    ``s * cfg.epochs + e``, which numbers its history rows, its divergence
    message and its ``on_epoch(epoch, net)`` call.

    Training holds only what the current stage and batch use. Adam moments
    live for one stage: a layer's pair is made at its first update in the
    stage, and the stage's pairs are dropped once its last epoch's batches
    are done, before that epoch's ``on_epoch``. No schedule trains a layer
    in two stages, so every layer's updates start from zero moments, as
    they would with moments made for every layer up front. The last batch,
    its trace and its gradients are gone before ``on_epoch`` runs.
    """
    rng = make_rng(cfg.seed)
    history: list[dict] = []
    states: dict[int, tuple[AdamState, AdamState]] = {}
    for stage, layers in enumerate(stages):
        last = (stage + 1) * cfg.epochs
        for epoch in range(stage * cfg.epochs + 1, last + 1):
            stats = EpochStats(net.depth, epoch)
            _fit_epoch(net, batches(rng), layers, step, stats, states, cfg.learning_rate)
            if epoch == last:
                states.clear()
            history.extend(stats.rows(loss_kind, layers))
            if on_epoch is not None:
                on_epoch(epoch, net)
    return net, history


def _fit_epoch(net, batches, layers, step, stats, states, learning_rate) -> None:
    """One epoch's batch loop of :func:`fit`. Its own frame binds the batch and
    the updates, so none of them outlives the epoch. It unbinds each update's
    gradients once applied, so they are free before the step computes the
    next one, and no update of a batch is alive during the next batch's step."""
    for batch in batches:
        for i, grad_w, grad_b in step(batch, layers, stats):
            if i not in states:
                lay = net.layers[i]
                states[i] = (
                    AdamState.for_param(lay.weights, learning_rate),
                    AdamState.for_param(lay.biases, learning_rate),
                )
            apply_adam_update(net, i, grad_w, grad_b, states)
            del grad_w, grad_b


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
    entropy objective skips a batch of fewer than 2 samples, and so of fewer
    than 2 positive rows (a trailing one-sample batch).

    The forward pass keeps only the staged layers' activities and inputs
    (``keep``): the other layers' goodness, all that gamma reads of them,
    is recorded as the pass goes, so a layerwise batch holds one layer's
    arrays, not every layer's up to its own. The step streams its updates
    in layer order: it yields each staged layer's gradient as soon as it is
    computed, so Adam steps that layer before the next gradient exists, and
    it drops the trace before it yields the last one.
    A layer's gradient is :func:`~ffnet.nn.layer_local_grad` of its
    :func:`activity_coeffs`, which are its pre-activation gradient. It
    reads only the layer's shape, and every input it takes comes from the
    pre-batch trace, so no gradient reads a weight that Adam has already
    stepped.
    """
    check_split_size(ds.n, "training", cfg.loss_kind)
    depth = net.depth

    def step(batch: LinkedBatch, layers: list[int], stats: EpochStats):
        if cfg.loss_kind == "entropy" and len(batch.images) < _ENTROPY_MIN_ROWS:
            return
        # Successor layers are computed only when their goodness feeds gamma.
        upto = depth if cfg.gamma_mode == "all_other_layers" else layers[-1] + 1
        trace = forward_pass(
            net, batch.images, upto, linked_labels=batch.linked_labels, keep=layers
        )
        d_goodness = layer_losses(goodness_table(trace), batch.polarity, cfg, layers, stats)
        for i, d_g in zip(layers, d_goodness):
            grad_w, grad_b = layer_local_grad(
                net.layers[i], trace.layer_input(i), activity_coeffs(trace.act[i], d_g),
                trace.linked_labels if i == 0 else None,
            )
            if i == layers[-1]:
                del trace  # Adam steps the last update without the trace beside it
            yield i, grad_w, grad_b
            del grad_w, grad_b

    batches = partial(make_linked_batches, ds, batch_size=cfg.batch_size)
    stages = schedule_stages(cfg.schedule, depth)
    return fit(net, cfg, stages, batches, step, cfg.loss_kind, on_epoch)


def score_rows(source, idx, shape, score) -> np.ndarray:
    """(n, *shape) scores of rows ``idx`` (default all) of an array or a :class:`Dataset`:
    ``score(block, out)`` fills ``out`` from ``SCORE_CHUNK`` float64 rows (Dataset.rows).

    An array with a non-finite value is a :class:`DataFormatError` naming its
    first such row, as a :class:`Dataset` rejects a NaN pixel; finite values
    outside [0, 1] are scored."""
    if isinstance(source, Dataset):
        n, take = source.n, source.rows
    else:
        source = as_matrix(source)
        finite = np.isfinite(source).all(axis=1)
        if not finite.all():
            raise DataFormatError(f"non-finite pixel value in row {int(np.argmin(finite))}")
        n, take = source.shape[0], source.__getitem__
    out = np.empty((n if idx is None else len(idx), *shape))
    for start in range(0, max(len(out), 1), SCORE_CHUNK):  # 0 rows still check the width
        rows = slice(start, start + SCORE_CHUNK)
        score(take(rows if idx is None else idx[rows]), out[rows])
    return out


def label_goodness_scores(net: MlpNetwork, images, idx=None) -> np.ndarray:
    """(n, N_LABELS, depth) goodness of every layer for every sample linked with
    every label, label ``y`` in column ``y``; :func:`score_rows` reads the rows.

    Each block of samples takes one pixel product, which
    ``nn.first_layer_factors`` returns with the label offset rows, and each
    label adds its offset row to it before running the remaining layers.
    Scoring reads only goodness, so each pass keeps no layer: it holds
    about one layer's arrays of the block at a time, which stay in cache
    and are reused by the allocator instead of being returned to the
    system and faulted in again.
    """

    def score(block, out):
        pixel_pre, offsets = first_layer_factors(net, block)
        for label, offset in enumerate(offsets):
            out[:, label] = goodness_table(forward_from_pre(net, pixel_pre + offset, keep=()))

    return score_rows(images, idx, (N_LABELS, net.depth), score)


def vote(scores: np.ndarray, layers) -> np.ndarray:
    """Best label by goodness summed over ``layers``; ties go to the lowest."""
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


def predict(net: MlpNetwork, images) -> np.ndarray:
    """Goodness-voting prediction over every label for a batch of raw samples."""
    return vote(label_goodness_scores(net, images), range(net.depth))


def test_error(net: MlpNetwork, ds: Dataset) -> float:
    """Fraction of misclassified samples under goodness voting."""
    check_split_size(ds.n, "test")
    return voting_error(label_goodness_scores(net, ds), ds.labels, range(net.depth))
