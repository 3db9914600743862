"""Functional-entropy estimation over goodness values.

For a non-negative function h sampled at n points under the uniform
empirical measure w_s = 1/n, the functional entropy is

    Ent(h) = sum_s w_s * h_s * log(h_s / hbar),   hbar = sum_s w_s * h_s,

with the 0 * log 0 = 0 convention. It is non-negative, zero exactly for
constant h, homogeneous of degree one, and equals E[h] times the KL
divergence from the prior w to the posterior q_s = w_s * h_s / hbar.

Over a (samples x layers) goodness grid with product-uniform weights the
estimate splits into an across-layer term (entropy of the per-layer means)
plus the average of the per-layer conditional entropies.

The model reports decompose three such grids, all gathered from the
goodness tensor of :func:`ffnet.ff.label_goodness_scores` over the seeded
evaluation sample of :func:`ffnet.data.draw_eval_sample`: each sample
linked with its true label (positive), with one wrong label (negative),
and both stacked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, draw_eval_sample
from .errors import DomainError
from .ff import check_split_size, label_goodness_scores, linked_goodness
from .nn import MlpNetwork

@dataclass
class EntropyReport:
    """Decomposed functional entropy of one goodness table."""

    overall: float
    across_layers: float
    within_layer: np.ndarray  # one value per layer
    sample_count: int


def _as_values(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise DomainError("values must be non-empty")
    if np.any(values < 0):
        raise DomainError(f"values must be non-negative, min is {values.min()}")
    return values


def functional_entropy(values) -> float:
    """Ent(h) under uniform weights over the values."""
    h = _as_values(values)
    w = np.full(h.shape[0], 1.0 / h.shape[0])
    hbar = float(np.dot(w, h))
    if hbar <= 0.0:
        return 0.0
    support = h > 0.0
    hs = h[support]
    return float(np.dot(w[support], hs * np.log(hs / hbar)))


def scaled_kl_identity(values) -> tuple[float, float]:
    """Both sides of Ent(h) = E[h] * KL(q || w) with uniform w and
    q = w * h / E[h].

    Returned as (entropy, scaled KL) for comparison; they agree up to
    floating-point rounding.
    """
    h = _as_values(values)
    w = np.full(h.shape[0], 1.0 / h.shape[0])
    lhs = functional_entropy(h)
    hbar = float(np.dot(w, h))
    if hbar <= 0.0:
        return 0.0, 0.0
    q = w * h / hbar
    support = q > 0.0
    kl = float(np.dot(q[support], np.log(q[support] / w[support])))
    return lhs, hbar * kl


def entropy_decompose(values) -> EntropyReport:
    """Split the grid entropy into across-layer and within-layer parts.

    The grid uses uniform weights over samples, layers, and their product.
    within_layer[i] is the entropy of column i; across_layers is the entropy
    of the per-layer column means; overall equals across_layers plus the
    mean of within_layer (up to rounding). Taken first, ``overall`` rejects
    an empty or a negative table (:func:`functional_entropy`).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DomainError(f"need a 2-D goodness table, got shape {values.shape}")
    m, depth = values.shape
    overall = functional_entropy(values.ravel())
    within = np.array(
        [functional_entropy(values[:, i]) for i in range(depth)]
    )
    layer_means = values.mean(axis=0)
    across = functional_entropy(layer_means)
    return EntropyReport(
        overall=overall,
        across_layers=across,
        within_layer=within,
        sample_count=m,
    )


def split_entropy_reports(positive, negative) -> dict[str, EntropyReport]:
    """Entropy of the (n, depth) goodness tables of samples linked with their
    true labels (positive), with wrong ones (negative), and of both stacked,
    keyed by those split names."""
    tables = {"positive": positive, "negative": negative}
    tables["both"] = np.vstack([positive, negative])
    return {split: entropy_decompose(values) for split, values in tables.items()}


def goodness_entropy_reports(
    net: MlpNetwork, ds: Dataset, n_samples: int = 2000, seed: int = 0
) -> dict[str, EntropyReport]:
    """:func:`split_entropy_reports` on the seeded evaluation sample of ``ds``.

    Equal seeds give identical draws, so trajectories measured at different
    training stages stay comparable.
    """
    check_split_size(ds.n, "test")
    idx, labels, wrong = draw_eval_sample(ds, n_samples, seed)
    scores = label_goodness_scores(net, ds, idx)
    return split_entropy_reports(
        linked_goodness(scores, labels), linked_goodness(scores, wrong)
    )
