"""Dataset download, checksum verification, and path resolution.

The library core only ever reads local files; this module is the one place
that touches the network. Each dataset pins its source URLs. SHA-256
digests are verified against the ``sha256`` pin when one is present;
otherwise the digest observed on first successful fetch is recorded next to
the file (``<name>.sha256``) and enforced from then on, so silent
corruption is still caught.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tarfile
import urllib.request
from dataclasses import dataclass
from pathlib import Path

from .data import Dataset, load_cifar_bin, load_idx
from .errors import ConfigError, DataFormatError
from .reports import atomic_write


@dataclass(frozen=True)
class RemoteFile:
    filename: str
    url: str
    sha256: str | None = None  # None: record on first fetch, verify after


MNIST_BASE = "https://ossci-datasets.s3.amazonaws.com/mnist"
FASHION_BASE = "http://fashion-mnist.s3-website.eu-central-1.amazonaws.com"

DATASETS: dict[str, list[RemoteFile]] = {
    "mnist": [
        RemoteFile("train-images-idx3-ubyte.gz", f"{MNIST_BASE}/train-images-idx3-ubyte.gz"),
        RemoteFile("train-labels-idx1-ubyte.gz", f"{MNIST_BASE}/train-labels-idx1-ubyte.gz"),
        RemoteFile("t10k-images-idx3-ubyte.gz", f"{MNIST_BASE}/t10k-images-idx3-ubyte.gz"),
        RemoteFile("t10k-labels-idx1-ubyte.gz", f"{MNIST_BASE}/t10k-labels-idx1-ubyte.gz"),
    ],
    "fashion_mnist": [
        RemoteFile("train-images-idx3-ubyte.gz", f"{FASHION_BASE}/train-images-idx3-ubyte.gz"),
        RemoteFile("train-labels-idx1-ubyte.gz", f"{FASHION_BASE}/train-labels-idx1-ubyte.gz"),
        RemoteFile("t10k-images-idx3-ubyte.gz", f"{FASHION_BASE}/t10k-images-idx3-ubyte.gz"),
        RemoteFile("t10k-labels-idx1-ubyte.gz", f"{FASHION_BASE}/t10k-labels-idx1-ubyte.gz"),
    ],
    "cifar10": [
        RemoteFile(
            "cifar-10-binary.tar.gz",
            "https://www.cs.toronto.edu/~kriz/cifar-10-binary.tar.gz",
        ),
    ],
}

CIFAR_MEMBERS = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]


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
    with urllib.request.urlopen(url) as response:
        atomic_write(target, lambda handle: shutil.copyfileobj(response, handle))


def _verify(path: Path, spec: RemoteFile) -> None:
    observed = sha256_file(path)
    sidecar = path.with_name(path.name + ".sha256")
    pinned = spec.sha256
    if pinned is None and sidecar.exists():
        pinned = sidecar.read_text().strip()
    if pinned is None:
        sidecar.write_text(observed + "\n")
        return
    if observed != pinned:
        raise DataFormatError(
            f"checksum mismatch for {path.name}: expected {pinned}, got {observed}"
        )


def fetch_dataset(name: str, data_dir=None, downloader=_download) -> list[Path]:
    """Ensure every file of ``name`` exists and verifies; idempotent.

    Returns the local paths. A second call with a warm cache performs no
    network I/O. ``downloader`` is injectable for testing.
    """
    if name not in DATASETS:
        raise ConfigError(f"unknown dataset {name!r}; choose from {sorted(DATASETS)}")
    target_dir = Path(data_dir) if data_dir else default_data_dir()
    target_dir = target_dir / name
    target_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in DATASETS[name]:
        target = target_dir / spec.filename
        if not target.exists():
            downloader(spec.url, target)
        _verify(target, spec)
        paths.append(target)
    if name == "cifar10":
        _extract_cifar(target_dir / DATASETS["cifar10"][0].filename, target_dir)
        paths = [target_dir / member for member in CIFAR_MEMBERS]
    return paths


def _extract_cifar(archive: Path, target_dir: Path) -> None:
    if all((target_dir / member).exists() for member in CIFAR_MEMBERS):
        return
    with tarfile.open(archive, "r:gz") as tar:
        for member in tar.getmembers():
            base = os.path.basename(member.name)
            if base in CIFAR_MEMBERS and member.isfile():
                source = tar.extractfile(member)
                if source is None:
                    raise DataFormatError(f"unreadable member {member.name} in {archive}")
                with open(target_dir / base, "wb") as out:
                    shutil.copyfileobj(source, out)
    missing = [m for m in CIFAR_MEMBERS if not (target_dir / m).exists()]
    if missing:
        raise DataFormatError(f"{archive} lacks expected members: {missing}")


def dataset_available(name: str, data_dir=None) -> bool:
    target_dir = (Path(data_dir) if data_dir else default_data_dir()) / name
    if name in ("mnist", "fashion_mnist"):
        return all((target_dir / spec.filename).exists() for spec in DATASETS[name])
    if name == "cifar10":
        return all((target_dir / member).exists() for member in CIFAR_MEMBERS)
    return False


def load_dataset(name: str, split: str, data_dir=None) -> Dataset:
    """Load a previously fetched dataset split from the cache directory."""
    if split not in ("train", "test"):
        raise ConfigError(f"split must be train or test, got {split!r}")
    target_dir = (Path(data_dir) if data_dir else default_data_dir()) / name
    if name in ("mnist", "fashion_mnist"):
        prefix = "train" if split == "train" else "t10k"
        return load_idx(
            target_dir / f"{prefix}-images-idx3-ubyte.gz",
            target_dir / f"{prefix}-labels-idx1-ubyte.gz",
            name=name,
            split=split,
        )
    if name == "cifar10":
        if split == "train":
            paths = [target_dir / f"data_batch_{i}.bin" for i in range(1, 6)]
        else:
            paths = [target_dir / "test_batch.bin"]
        return load_cifar_bin(paths, split=split)
    raise ConfigError(f"unknown dataset {name!r}")
