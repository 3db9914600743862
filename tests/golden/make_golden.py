"""Rewrite every golden artifact that ``tests/test_golden.py`` compares against:
one ``<method>.npz`` per training method, ``eval.npz`` and ``trainers.npz``.

Run from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

Only a change meant to move the numbers may run it, and CHANGES.md must
name the arrays that moved. A refactor never does: ``trainers.npz`` and
``bp_classic.npz`` are compared byte for byte, and the rest hold it to the
tolerances in ``tests/test_golden.py``.
"""

import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import write_mnist_fixture  # noqa: E402
from test_golden import collect_artifacts, trainer_fingerprint  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "data"
        write_mnist_fixture(data_dir)
        for run, arrays in collect_artifacts(data_dir, Path(tmp) / "runs").items():
            np.savez(HERE / f"{run}.npz", **arrays)
            print(f"wrote {HERE / f'{run}.npz'}")
    np.savez(HERE / "trainers.npz", **trainer_fingerprint())
    print(f"wrote {HERE / 'trainers.npz'}")


if __name__ == "__main__":
    main()
