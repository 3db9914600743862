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

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigError
from .ff import checked_layers, label_goodness_scores, voting_error
from .nn import MlpNetwork


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


def subset_label(layers) -> str:
    """Human/CSV form of a subset, 1-based: {0, 2} -> '1+3'."""
    return "+".join(str(i + 1) for i in sorted(layers))


def parse_subset_label(text: str) -> frozenset:
    """Inverse of :func:`subset_label`."""
    try:
        parts = [int(p) for p in text.split("+")]
    except ValueError as exc:
        raise ConfigError(f"bad subset spec {text!r}") from exc
    if any(p < 1 for p in parts):
        raise ConfigError(f"subset labels are 1-based, got {text!r}")
    return frozenset(p - 1 for p in parts)


def default_subset_family(depth: int) -> list[frozenset]:
    """Singletons, prefixes, leave-one-outs, and the full set."""
    full = frozenset(range(depth))
    family: list[frozenset] = []
    for i in range(depth):
        family.append(frozenset([i]))
    for i in range(2, depth + 1):
        family.append(frozenset(range(i)))
    for i in range(depth):
        family.append(full - {i})
    family.append(full)
    seen: set[frozenset] = set()
    unique = []
    for s in family:
        if s not in seen:
            seen.add(s)
            unique.append(s)
    return unique


def subset_errors(scores: np.ndarray, labels, subsets) -> SubsetEvalReport:
    """Voting error of each requested layer subset, from a goodness tensor.

    ``scores`` is the (n, N_LABELS, depth) tensor of
    :func:`ffnet.ff.label_goodness_scores` for the samples whose true labels
    are ``labels``.
    """
    requested = [frozenset(checked_layers(s, scores.shape[2])) for s in subsets]
    if not requested:
        raise ConfigError("no subsets requested")
    unique: list[frozenset] = []
    for s in requested:
        if s in unique:
            warnings.warn(f"duplicate subset {subset_label(s)} ignored", stacklevel=2)
            continue
        unique.append(s)
    n = scores.shape[0]
    return SubsetEvalReport(
        entries=[
            SubsetResult(layers=s, error=voting_error(scores, labels, sorted(s)), n=n)
            for s in unique
        ]
    )


def evaluate_subsets(net: MlpNetwork, ds: Dataset, subsets) -> SubsetEvalReport:
    """Test error of goodness voting restricted to each requested subset."""
    return subset_errors(label_goodness_scores(net, ds.images), ds.labels, subsets)


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
