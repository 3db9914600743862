"""Layer-subset evaluation and marginal contributions.

Goodness voting lets any subset of layers classify on its own, which turns
"how much does layer i help" into a measurable quantity: evaluate the full
voting set with and without the layer and difference the error rates.

Every subset error is a reduction of one (sample, candidate label, layer)
goodness tensor from :func:`ffnet.ff.label_goodness_scores`: a subset sums
its layers and votes, in the same arithmetic as :func:`ffnet.ff.predict`.
So the cost is one forward pass per (sample, label) however many subsets
are requested, and the full set's error equals the voting test error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .ff import check_split_size, checked_layers, label_goodness_scores, voting_error
from .nn import MlpNetwork
from .reports import subset_label


@dataclass(frozen=True)
class SubsetResult:
    layers: frozenset  # 0-based layer indices
    error: float
    n: int


@dataclass
class SubsetEvalReport:
    entries: list[SubsetResult]

    def error_of(self, layers) -> float:
        key = frozenset(int(i) for i in layers)
        for entry in self.entries:
            if entry.layers == key:
                return entry.error
        raise KeyError(f"subset {sorted(key)} not evaluated")


def parse_subset_label(text: str) -> frozenset:
    """Inverse of :func:`subset_label`."""
    try:
        parts = [int(p) for p in text.split("+")]
    except ValueError as exc:
        raise ConfigError(f"bad subset spec {text!r}") from exc
    if any(p < 1 for p in parts):
        raise ConfigError(f"subset labels are 1-based, got {text!r}")
    return frozenset(p - 1 for p in parts)


def check_subset_family(subsets, depth: int) -> list[frozenset]:
    """``subsets`` of a ``depth``-layer network as frozensets of 0-based layers,
    each passing :func:`ffnet.ff.checked_layers`; rejects an empty request and
    a repeated subset. ``frozenset(s)`` keeps a None member from meaning every layer."""
    family: list[frozenset] = []
    for s in subsets:
        layers = frozenset(checked_layers(frozenset(s), depth))
        if layers in family:
            raise ConfigError(f"subset {subset_label(layers)} is requested twice")
        family.append(layers)
    if not family:
        raise ConfigError("no subsets requested")
    return family


def default_subset_family(depth: int) -> list[frozenset]:
    """Singletons, prefixes, leave-one-outs (from depth 2, as depth 1's would
    be empty), and the full set, each once."""
    full = frozenset(range(depth))
    family: list[frozenset] = []
    for i in range(depth):
        family.append(frozenset([i]))
    for i in range(2, depth + 1):
        family.append(frozenset(range(i)))
    if depth > 1:
        family.extend(full - {i} for i in range(depth))
    family.append(full)
    return list(dict.fromkeys(family))


def subset_errors(scores: np.ndarray, labels, subsets) -> SubsetEvalReport:
    """Voting error of each requested layer subset, from a goodness tensor.

    ``scores`` is the (n, N_LABELS, depth) tensor of
    :func:`ffnet.ff.label_goodness_scores` for the samples whose true labels
    are ``labels``; ``subsets`` passes :func:`check_subset_family`.
    """
    n = scores.shape[0]
    return SubsetEvalReport(
        entries=[
            SubsetResult(layers=s, error=voting_error(scores, labels, sorted(s)), n=n)
            for s in check_subset_family(subsets, scores.shape[2])
        ]
    )


def evaluate_subsets(net: MlpNetwork, ds: Dataset, subsets) -> SubsetEvalReport:
    """Test error of goodness voting restricted to each requested subset."""
    check_split_size(ds.n, "test")
    return subset_errors(label_goodness_scores(net, ds), ds.labels, subsets)


def marginal_contributions(report: SubsetEvalReport, depth: int) -> np.ndarray:
    """error(full minus layer) - error(full), per layer; positive means the
    layer helps the vote."""
    full = frozenset(range(depth))
    try:
        err_full = report.error_of(full)
        return np.array(
            [report.error_of(full - {i}) - err_full for i in range(depth)]
        )
    except KeyError as exc:
        raise ConfigError(
            f"report lacks the subsets needed for marginals: {exc}"
        ) from exc
