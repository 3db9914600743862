"""Dataset ingestion, label linking, and negative sampling.

On-disk formats
---------------
IDX (MNIST / Fashion-MNIST): big-endian, magic 0x00000803 for image files
with dims (n, rows, cols) and 0x00000801 for label files with dim (n),
followed by unsigned bytes. Gzip-compressed files are detected by their
leading 0x1f 0x8b bytes and inflated into one buffer of the size the gzip
trailer states; :func:`write_idx` writes them at gzip level 1.

A :class:`Dataset` keeps its ``pixels`` in the dtype they were read in:
uint8 for IDX files, where a pixel's value is byte / 255, and
float64 in [0, 1] for float input such as synthetic data. Pixels are scaled
to float64 in [0, 1] when rows are taken (:meth:`Dataset.rows`), so a split
is held at one byte per pixel, not eight: training takes one batch at a
time, and scoring (``ff.score_rows``) ``ff.SCORE_CHUNK`` rows at a time.
:func:`unit_floats` states that scaling once; scoring reads the rows of a
plain array by it too, so a uint8 array scores as its Dataset does.
:attr:`Dataset.images` is the whole split as float64, a fresh copy on every
access; nothing in the package calls it (tests, demos and the benchmark do).

A "linked" input is the flattened sample with a 10-dim one-hot label block
appended after the pixels, so MNIST-sized inputs become 794-dim. Training
batches hold each sample's float64 pixels once plus the label each row links
it with; no trainer builds the linked matrix (see
:func:`split_linked_weights`), and :meth:`LinkedBatch.linked_inputs` builds
it only as the oracle the tests compare the label-factored form against.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, ShapeError
from .linalg import make_rng

N_LABELS = 10

# Flattened dimension required for each known dataset name; other names are
# allowed (synthetic data) and skip the check.
DATASET_DIMS = {"mnist": 784, "fashion_mnist": 784}

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


def unit_floats(pixels) -> np.ndarray:
    """Float64 values of stored pixels: a uint8 byte is byte / 255, bit for bit
    ``astype(np.float64) / 255.0``; any other value is converted to float64
    exactly, and a float64 array is returned as it is, not copied."""
    pixels = np.asarray(pixels)
    if pixels.dtype == np.uint8:
        return np.divide(pixels, 255.0, dtype=np.float64)
    return pixels.astype(np.float64, copy=False)


@dataclass
class Dataset:
    """One split: ``pixels`` (n, d) and ``labels`` (n,) int64 in 0..9.

    ``pixels`` holds the values as they were read: uint8 bytes, whose value is
    byte / 255, or float64 already in [0, 1]; any other input is converted to
    float64. :meth:`rows` gives float64 rows in [0, 1]: the batch loops and
    the scoring loop (``ff.score_rows``, ``ff.SCORE_CHUNK`` rows at a time)
    call it with each block's indices. :attr:`images` is the whole split as
    float64, a fresh copy on every access, which nothing in the package reads.
    """

    pixels: np.ndarray  # (n, d) uint8 (value / 255) or float64 in [0, 1]
    labels: np.ndarray  # (n,) int64 in 0..9
    name: str
    split: str

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels)
        if pixels.dtype != np.uint8:
            pixels = pixels.astype(np.float64, copy=False)
        self.pixels = pixels
        labels = np.asarray(self.labels)
        if labels.dtype.kind not in "iu" and not _whole(labels, np.int64):
            raise DataFormatError("labels must be whole numbers")
        self.labels = labels.astype(np.int64, copy=False)
        if self.pixels.ndim != 2:
            raise DataFormatError(f"images must be 2-D, got shape {self.pixels.shape}")
        if self.labels.shape != (self.n,):
            raise DataFormatError(
                f"label count {self.labels.shape} does not match {self.n} images"
            )
        expected = DATASET_DIMS.get(self.name)
        if expected is not None and self.n > 0 and self.d != expected:
            raise DataFormatError(
                f"{self.name} images must have {expected} pixels, got {self.d}"
            )
        if self.n > 0:
            if self.pixels.dtype == np.float64:
                lo, hi = float(self.pixels.min()), float(self.pixels.max())
                # A NaN pixel fails both comparisons, so it is rejected too.
                if not (lo >= 0.0 and hi <= 1.0):
                    raise DataFormatError(f"pixel values outside [0, 1]: [{lo}, {hi}]")
            if self.labels.min() < 0 or self.labels.max() >= N_LABELS:
                raise DataFormatError("labels outside 0..9")

    @property
    def n(self) -> int:
        return self.pixels.shape[0]

    @property
    def d(self) -> int:
        return self.pixels.shape[1]

    def rows(self, idx) -> np.ndarray:
        """Float64 rows ``idx`` of the split, in [0, 1] (:func:`unit_floats`); a
        slice of a float64 split is a view."""
        return unit_floats(self.pixels[idx])

    @property
    def images(self) -> np.ndarray:
        """(n, d) float64 in [0, 1]: the whole split, a fresh copy per access."""
        images = self.rows(slice(None))
        # A float64 split's rows are its own pixels, which a caller must not write.
        return images.copy() if np.may_share_memory(images, self.pixels) else images

    def subset(self, n: int) -> "Dataset":
        """First ``n`` samples (deterministic)."""
        return Dataset(self.pixels[:n], self.labels[:n], self.name, self.split)


def _gunzip(raw: bytes) -> bytes:
    """Inflate gzip bytes into one buffer sized from the trailer's ISIZE field,
    the last member's length mod 2**32. ``gzip.decompress`` grows its output
    in blocks and peaks near five times the result; a result whose length is
    not ISIZE (a file of several members) is inflated again by it."""
    size = int.from_bytes(raw[-4:], "little")
    # Deflate expands at most 1032-fold, which caps what a damaged trailer claims.
    out = zlib.decompress(raw, wbits=31, bufsize=max(1, min(size, 1032 * len(raw))))
    if len(out) % 2**32 != size:
        out = gzip.decompress(raw)
    return out


def _read_idx(path, expected_magic: int, what: str) -> np.ndarray:
    path = Path(path)
    try:
        raw = path.read_bytes()
        if raw[:2] == b"\x1f\x8b":
            raw = _gunzip(raw)
    except (OSError, EOFError, zlib.error) as exc:
        raise DataFormatError(f"{what} file {path}: unreadable ({exc})") from exc
    if len(raw) < 4:
        raise DataFormatError(f"{what} file {path}: truncated before magic")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != expected_magic:
        raise DataFormatError(
            f"{what} file {path}: expected magic 0x{expected_magic:08x}, "
            f"found 0x{magic:08x}"
        )
    ndim = magic & 0xFF
    header_len = 4 + 4 * ndim
    if len(raw) < header_len:
        raise DataFormatError(f"{what} file {path}: truncated dimension header")
    dims = struct.unpack(f">{ndim}I", raw[4:header_len])
    expected_items = math.prod(dims)
    payload = np.frombuffer(raw, dtype=np.uint8, offset=header_len)
    if payload.size != expected_items:
        raise DataFormatError(
            f"{what} file {path}: expected {expected_items} data bytes, "
            f"found {payload.size}"
        )
    return payload.reshape(dims)


def load_idx(images_path, labels_path, name: str = "mnist", split: str = "train") -> Dataset:
    """Parse an IDX image/label file pair into a Dataset."""
    images = _read_idx(images_path, IDX_IMAGES_MAGIC, "images")
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC, "labels")
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"image/label count mismatch: {images.shape[0]} images vs "
            f"{labels.shape[0]} labels"
        )
    n = images.shape[0]
    # The width is spelled out: reshape cannot derive a -1 width from 0 images.
    flat = images.reshape(n, math.prod(images.shape[1:]))
    return Dataset(flat, labels.astype(np.int64), name=name, split=split)


# Level 9 made the synthetic 2,000-image files only 2% smaller than level 1
# at seven times the compression time; decompression costs the same.
GZIP_LEVEL = 1


def _whole(values: np.ndarray, dtype) -> bool:
    """Whether ``values`` cast to the integer ``dtype`` unchanged: whole
    numbers in its range (a NaN or an infinity is neither)."""
    with np.errstate(invalid="ignore"):
        return np.array_equal(values.astype(dtype), values)


def write_idx(path, array: np.ndarray) -> None:
    """Inverse of :func:`_read_idx`; gzips when path ends .gz.

    Any array whose values are whole numbers in 0..255 is stored as bytes;
    other values are rejected, not wrapped. The gzip header stores no
    timestamp and no file name, so equal arrays give equal files.
    """
    array = np.asarray(array)
    if array.dtype != np.uint8 and not _whole(array, np.uint8):
        raise DataFormatError(f"{path}: IDX stores only whole numbers in 0..255")
    array = np.ascontiguousarray(array, dtype=np.uint8)
    magic = 0x00000800 | array.ndim
    raw = struct.pack(f">I{array.ndim}I", magic, *array.shape) + array.tobytes()
    if str(path).endswith(".gz"):
        raw = gzip.compress(raw, compresslevel=GZIP_LEVEL, mtime=0)
    Path(path).write_bytes(raw)


def one_hot(labels, n_labels: int = N_LABELS) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], n_labels))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def link_inputs(images, labels) -> np.ndarray:
    """Append a one-hot label block after the pixels."""
    images = np.asarray(images, dtype=np.float64)
    return np.hstack([images, one_hot(labels)])


def split_linked_weights(weights, n_pixels: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel rows and label rows of a first-layer weight matrix over linked inputs.

    With the layout of :func:`link_inputs`, ``link_inputs(x, y) @ weights``
    equals ``x @ pixel_rows + label_rows[y]`` up to rounding.
    """
    if weights.shape[0] != n_pixels + N_LABELS:
        raise ShapeError(
            f"{n_pixels} pixels + {N_LABELS} label units = {n_pixels + N_LABELS} "
            f"columns, network expects {weights.shape[0]}"
        )
    return weights[:n_pixels], weights[n_pixels:]


def linked_copies(rows: int, samples: int) -> int:
    """Linked rows per sample of a label-factored batch of ``rows`` rows over
    ``samples`` samples; ``samples`` must be nonzero and divide ``rows``."""
    if samples == 0 or rows % samples:
        raise ShapeError(f"{rows} linked rows are not a multiple of {samples} samples")
    return rows // samples


@dataclass
class LinkedBatch:
    """One training batch: ``m`` samples, each linked with its true label and
    with one wrong label.

    Row ``r`` of the batch is sample ``r % m`` linked with
    ``linked_labels[r]``. The first ``m`` rows are positives, linked with the
    true label; the last ``m`` are negatives, each linked with a uniformly
    random wrong one. The per-row arrays have ``2 * m`` entries; ``images``
    holds each sample's pixels once.
    """

    images: np.ndarray        # (m, d) the samples' pixels
    polarity: np.ndarray      # (rows,) +1.0 / -1.0
    linked_labels: np.ndarray  # (rows,)

    @property
    def copies(self) -> int:
        """Rows per sample, 2 for a batch of :func:`make_linked_batches`
        (:func:`linked_copies`)."""
        return linked_copies(self.linked_labels.shape[0], self.images.shape[0])

    def linked_inputs(self) -> np.ndarray:
        """(rows, d + N_LABELS) linked matrix of the batch, built on demand.

        No trainer calls it; it is the linked oracle that the tests compare
        the label-factored forward pass and gradients against.
        """
        return link_inputs(np.tile(self.images, (self.copies, 1)), self.linked_labels)


def sample_wrong_labels(true_labels, rng: np.random.Generator) -> np.ndarray:
    """Uniform draw over the N_LABELS - 1 labels that differ from the truth."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    draws = rng.integers(0, N_LABELS - 1, size=true_labels.shape[0])
    return draws + (draws >= true_labels)


def draw_eval_sample(
    ds: Dataset, n_samples: int, seed: int
) -> tuple[np.ndarray, Dataset, np.ndarray]:
    """Seeded evaluation sample: up to ``n_samples`` indices, their rows as a
    :class:`Dataset`, and one wrong label each. Every snapshot of a run and
    ``ffnet eval`` of its checkpoint draw the same samples."""
    rng = make_rng(seed)
    idx = rng.permutation(ds.n)[: min(n_samples, ds.n)]
    sample = Dataset(ds.pixels[idx], ds.labels[idx], ds.name, ds.split)
    return idx, sample, sample_wrong_labels(sample.labels, rng)


def make_linked_batches(ds: Dataset, rng: np.random.Generator, batch_size: int):
    """One epoch of shuffled LinkedBatch values, on :func:`make_plain_batches`.

    ``batch_size`` counts dataset samples; each contributes one positive row
    and one negative row, so a batch holds 2 * batch_size rows over
    batch_size samples. Reinvoking with the same generator reshuffles and
    redraws the wrong labels, which is how epochs get fresh negatives.
    """
    for images, true in make_plain_batches(ds, rng, batch_size):
        yield LinkedBatch(
            images=images,
            polarity=np.concatenate([np.ones(len(true)), -np.ones(len(true))]),
            linked_labels=np.concatenate([true, sample_wrong_labels(true, rng)]),
        )


def make_plain_batches(ds: Dataset, rng: np.random.Generator, batch_size: int):
    """One epoch of shuffled (images, labels) pairs for the classic baseline."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    order = rng.permutation(ds.n)
    for start in range(0, ds.n, batch_size):
        idx = order[start : start + batch_size]
        yield ds.rows(idx), ds.labels[idx]
