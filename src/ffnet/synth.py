"""Deterministic synthetic datasets for demos and offline tests.

Each of the ten classes gets a fixed sparse template in [0, 1]^d, active on
a quarter of the pixels; samples are the template plus clipped Gaussian
noise. Easy enough that a small network separates it in a few epochs, which
keeps the end-to-end tests fast without shipping any real data.
"""

from __future__ import annotations

import zlib

import numpy as np

from .data import Dataset, N_LABELS
from .linalg import make_rng


def class_templates(d: int, seed: int = 0) -> np.ndarray:
    """(N_LABELS, d) templates, each active on d // 4 pixels (at least one)."""
    rng = make_rng(seed)
    n_active = max(1, d // 4)
    templates = np.zeros((N_LABELS, d))
    for c in range(N_LABELS):
        support = rng.choice(d, size=n_active, replace=False)
        templates[c, support] = rng.uniform(0.5, 1.0, size=n_active)
    return templates


def synthetic_dataset(
    n: int,
    d: int = 64,
    seed: int = 0,
    noise: float = 0.12,
    split: str = "train",
) -> Dataset:
    """``n`` noisy template samples with balanced-ish random labels in 0..9.

    The class templates depend only on (d, seed), so train and test splits,
    drawn from streams keyed by their split names, share the same concepts.
    The dataset is named ``synthetic``.
    """
    templates = class_templates(d, seed)
    # crc32 keeps the stream split-dependent without Python's salted hash()
    rng = np.random.default_rng([seed, zlib.crc32(split.encode()), n])
    labels = rng.integers(0, N_LABELS, size=n)
    images = templates[labels] + noise * rng.standard_normal((n, d))
    return Dataset(np.clip(images, 0.0, 1.0), labels, "synthetic", split)


def synthetic_pair(
    n_train: int,
    n_test: int,
    d: int = 64,
    seed: int = 0,
    noise: float = 0.12,
) -> tuple[Dataset, Dataset]:
    """Train and test splits of :func:`synthetic_dataset` over one template set."""
    train = synthetic_dataset(n_train, d, seed, noise, split="train")
    test = synthetic_dataset(n_test, d, seed, noise, split="test")
    return train, test
