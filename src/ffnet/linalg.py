"""Dense float64 array helpers shared by every other module.

All numeric state in this library is a row-major 2-D float64 array: a batch
of m samples of dimension d is an (m, d) matrix. Randomness always flows
through a seeded ``numpy.random.Generator`` so that equal seeds plus equal
call sequences reproduce runs bit for bit.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

# Default denominator guard for row normalization; keeps dead-ReLU rows at
# exactly zero instead of NaN.
NORM_EPSILON = 1e-8


def make_rng(seed: int) -> np.random.Generator:
    """Seeded 64-bit generator (PCG64)."""
    return np.random.default_rng(seed)


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a contiguous 2-D float64 array; 1-D becomes one row."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim == 1:
        out = out[np.newaxis, :]
    if out.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got shape {out.shape}")
    return np.ascontiguousarray(out)


def relu(a) -> np.ndarray:
    """Entrywise max(0, a)."""
    return np.maximum(np.asarray(a, dtype=np.float64), 0.0)


def l2_row_normalize(a, epsilon: float = NORM_EPSILON) -> np.ndarray:
    """Divide each row by its Euclidean norm plus ``epsilon``.

    Zero rows map to zero rows (never NaN), including when epsilon == 0.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    a = as_matrix(a)
    norms = np.linalg.norm(a, axis=1, keepdims=True)
    denom = norms + epsilon
    # Rows with denom == 0 are all-zero rows; 1/denom is never applied there.
    safe = np.where(denom > 0.0, denom, 1.0)
    return a / safe


def row_sumsq(a) -> np.ndarray:
    """Per-row sum of squares, shape (m,)."""
    a = as_matrix(a)
    return np.einsum("ij,ij->i", a, a)
