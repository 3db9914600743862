"""Dataset download, checksum verification, and path resolution.

The library core only ever reads local files; this module is the one place
that touches the network. Every dataset is an IDX (images, labels) pair per
split, read by :func:`ffnet.data.load_idx`, and pins its source URLs. SHA-256
digests are verified against the ``sha256`` pin when one is present;
otherwise the digest observed on the first fetch whose files read is recorded
next to the file (``<name>.sha256``) and enforced from then on, so silent
corruption is still caught.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from .data import Dataset, load_idx
from .errors import ConfigError, DataFormatError, check_choice
from .reports import atomic_write, atomic_write_text


@dataclass(frozen=True)
class RemoteFile:
    filename: str
    url: str
    sha256: str | None = None  # None: record on first fetch, verify after


MNIST_BASE = "https://ossci-datasets.s3.amazonaws.com/mnist"
FASHION_BASE = "http://fashion-mnist.s3-website.eu-central-1.amazonaws.com"

SPLITS = ("train", "test")
# The local (images, labels) files of each split, the same for every dataset.
IDX_FILES = {
    "train": ("train-images-idx3-ubyte.gz", "train-labels-idx1-ubyte.gz"),
    "test": ("t10k-images-idx3-ubyte.gz", "t10k-labels-idx1-ubyte.gz"),
}


def _idx_downloads(base: str) -> list[RemoteFile]:
    return [RemoteFile(name, f"{base}/{name}") for files in IDX_FILES.values() for name in files]


# What fetch_dataset downloads for each dataset.
DATASETS: dict[str, list[RemoteFile]] = {
    "mnist": _idx_downloads(MNIST_BASE),
    "fashion_mnist": _idx_downloads(FASHION_BASE),
}

DATASET_NAMES = tuple(DATASETS)


def default_data_dir() -> Path:
    env = os.environ.get("FFNET_DATA")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "ffnet" / "data"


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _download(url: str, target: Path) -> None:
    # Imported here: the network stack costs every command that never downloads.
    import urllib.request

    with urllib.request.urlopen(url) as response:
        atomic_write(target, lambda handle: shutil.copyfileobj(response, handle))


def _verify(path: Path, spec: RemoteFile):
    """Check ``path`` against its pinned or recorded digest. Returns the step that records
    the digest of a file that has neither, for the caller to run once the file reads,
    else None."""
    observed = sha256_file(path)
    sidecar = path.with_name(path.name + ".sha256")
    pinned = spec.sha256
    if pinned is None and sidecar.exists():
        pinned = sidecar.read_text().strip()
    if pinned is None:
        return lambda: atomic_write_text(sidecar, observed + "\n")
    if observed != pinned:
        raise DataFormatError(
            f"checksum mismatch for {path.name}: expected {pinned}, got {observed}"
        )
    return None


def fetch_dataset(name: str, data_dir=None, downloader=_download) -> list[Path]:
    """Ensure every file of ``name`` exists and verifies; idempotent.

    Returns the local paths of every split's files. A second call with a
    warm cache performs no network I/O. ``downloader`` is injectable for testing.
    A file with no pinned or recorded digest has its digest recorded only once
    every split reads through :func:`load_dataset`. If a split does not read,
    such files are removed, so the next call downloads them again.
    """
    check_choice("dataset", name, DATASET_NAMES)
    target_dir = _dataset_dir(name, data_dir)
    target_dir.mkdir(parents=True, exist_ok=True)
    unrecorded = {}
    for spec in DATASETS[name]:
        target = target_dir / spec.filename
        if not target.exists():
            downloader(spec.url, target)
        record = _verify(target, spec)
        if record is not None:
            unrecorded[target] = record
    try:
        if unrecorded:
            for split in SPLITS:
                load_dataset(name, split, data_dir)
    except DataFormatError:
        for path in unrecorded:
            path.unlink(missing_ok=True)
        raise
    for record in unrecorded.values():
        record()
    return _split_paths(name, data_dir)


def _dataset_dir(name: str, data_dir) -> Path:
    return (Path(data_dir) if data_dir else default_data_dir()) / name


def _split_paths(name: str, data_dir, splits=SPLITS) -> list[Path]:
    """The local paths of the files of ``splits`` of ``name``, split by split."""
    target_dir = _dataset_dir(name, data_dir)
    return [target_dir / file for split in splits for file in IDX_FILES[split]]


def dataset_available(name: str, data_dir=None) -> bool:
    return name in DATASET_NAMES and all(path.exists() for path in _split_paths(name, data_dir))


def load_dataset(name: str, split: str, data_dir=None) -> Dataset:
    """Load a fetched dataset split from the cache directory; a missing file
    is a :class:`ConfigError` that names the ``ffnet fetch`` command."""
    check_choice("dataset", name, DATASET_NAMES)
    check_choice("split", split, SPLITS)
    paths = _split_paths(name, data_dir, [split])
    missing = [path.name for path in paths if not path.exists()]
    if missing:
        command = f"ffnet fetch {name}" + (f" --data-dir {data_dir}" if data_dir else "")
        raise ConfigError(
            f"{name} {split} split not fetched: {', '.join(missing)} missing "
            f"from {paths[0].parent}; run '{command}'"
        )
    return load_idx(*paths, name=name, split=split)
