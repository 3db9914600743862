"""Seeded fuzz of every reader of an input file.

Each test damages a valid file in four ways drawn from a fixed seed: cut at a
random length, one to three bits flipped, random bytes appended, and 4 bytes
overwritten at a random offset. Every damaged file must load or raise one of
the package's own errors, whose message is one line; through ``ffnet`` it
must exit 1 with one ``error:`` line.
"""

import collections
import json

import numpy as np
import pytest

from ffnet import errors
from ffnet.checkpoint import load_checkpoint, save_checkpoint
from ffnet.cli import main
from ffnet.data import load_idx, write_idx
from ffnet.linalg import make_rng
from ffnet.nn import init_network

PACKAGE_ERRORS = (
    errors.ShapeError,
    errors.ConfigError,
    errors.DataFormatError,
    errors.DomainError,
    errors.CheckpointError,
)
KINDS = ("truncate", "flip", "append", "overwrite")
PER_KIND = 25


def mutants(raw: bytes, seed: int):
    """``PER_KIND`` damaged copies of ``raw`` of each kind, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    for kind in KINDS:
        for _ in range(PER_KIND):
            data = bytearray(raw)
            if kind == "truncate":
                del data[rng.integers(len(data)):]
            elif kind == "flip":
                for pos in rng.integers(len(data), size=rng.integers(1, 4)):
                    data[pos] ^= 1 << int(rng.integers(8))
            elif kind == "append":
                data += rng.bytes(int(rng.integers(1, 65)))
            else:
                pos = int(rng.integers(len(data) - 3))
                data[pos:pos + 4] = rng.bytes(4)
            yield bytes(data)


def fuzz(path, seed: int, read) -> collections.Counter:
    """Write each mutant of ``path`` over it and ``read()`` it; counts of each
    outcome, ``loaded`` or the name of the package error raised."""
    outcomes = collections.Counter()
    for data in mutants(path.read_bytes(), seed):
        path.write_bytes(data)
        try:
            read()
            outcomes["loaded"] += 1
        except PACKAGE_ERRORS as exc:
            assert "\n" not in str(exc)
            outcomes[type(exc).__name__] += 1
    return outcomes


def test_the_mutants_are_seeded_and_of_every_kind():
    raw = bytes(range(40))
    first, again = list(mutants(raw, 3)), list(mutants(raw, 3))
    assert first == again and len(first) == len(KINDS) * PER_KIND
    truncated, flipped, appended, overwritten = (
        first[i * PER_KIND:(i + 1) * PER_KIND] for i in range(len(KINDS))
    )
    assert all(len(data) < len(raw) and raw.startswith(data) for data in truncated)
    assert all(len(data) == len(raw) and data != raw for data in flipped)
    assert all(len(data) > len(raw) and data.startswith(raw) for data in appended)
    assert all(len(data) == len(raw) for data in overwritten)


@pytest.mark.parametrize("suffix", [".gz", ""], ids=["gzip", "raw"])
@pytest.mark.parametrize("member", ["images", "labels"])
def test_idx_reader(tmp_path, suffix, member):
    rng = make_rng(0)
    paths = {what: tmp_path / f"{what}.idx{suffix}" for what in ("images", "labels")}
    write_idx(paths["images"], rng.integers(0, 256, size=(4, 3, 3)))
    write_idx(paths["labels"], rng.integers(0, 10, size=4))
    outcomes = fuzz(paths[member], 11, lambda: load_idx(paths["images"], paths["labels"], "fuzz"))
    assert outcomes["DataFormatError"] > 0


def test_checkpoint_reader(tmp_path):
    path = tmp_path / "model.npz"
    save_checkpoint(path, init_network([4, 3, 2], make_rng(0)), {"method": "ff", "seed": 2})
    assert fuzz(path, 13, lambda: load_checkpoint(path))["CheckpointError"] > 0


def test_config_file_through_the_cli(tmp_path, capsys):
    """A config that still resolves fails on the empty data directory, so
    every mutant exits 1; none trains or writes a run."""
    config = {"dataset": "mnist", "method": "collab_ff", "epochs": 2, "theta": 5.0,
              "gamma_mode": "all_other_layers", "seed": 3}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    argv = ["train", "--config", str(path), "--data-dir", str(tmp_path / "empty"),
            "--output-dir", str(out)]
    lines = set()
    for data in mutants(path.read_bytes(), 14):
        path.write_bytes(data)
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ")
        lines.add(line)
    assert not out.exists()
    assert len(lines) > 1
