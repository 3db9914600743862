"""CSV and JSON emission. Every file is written atomically (temp + rename)."""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path

HISTORY_FIELDS = [
    "epoch",
    "layer",
    "loss_kind",
    "split",
    "loss",
    "mean_goodness_pos",
    "mean_goodness_neg",
]


def atomic_write(path, write) -> None:
    """Call ``write`` on a binary handle to a temp file, then rename it onto
    ``path``. Checkpoints and downloads are written through it as well.

    The temp file is made by ``open()``, so the file gets the mode ``open()``
    gives a new file, 0o666 less the umask; ``tempfile.mkstemp`` would make
    it 0o600, a mode the rename keeps. Its random name is opened exclusively.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp, "xb")
    try:
        with handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write(path, lambda handle: handle.write(text.encode("utf-8")))


def write_csv(path, fieldnames, rows) -> None:
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for row in rows:
        writer.writerow({k: row.get(k, "") for k in fieldnames})
    atomic_write_text(path, buffer.getvalue())


def entropy_fields(depth: int) -> list[str]:
    return ["epoch", "split", "overall", "across_layers"] + [
        f"within_layer_{i + 1}" for i in range(depth)
    ]


def entropy_row(epoch: int, split: str, report) -> dict:
    row = {
        "epoch": epoch,
        "split": split,
        "overall": report.overall,
        "across_layers": report.across_layers,
    }
    for i, value in enumerate(report.within_layer):
        row[f"within_layer_{i + 1}"] = value
    return row


def subset_label(layers) -> str:
    """Human/CSV form of a subset, 1-based: {0, 2} -> '1+3'."""
    return "+".join(str(i + 1) for i in sorted(layers))


def subsets_table(report) -> tuple[list[str], list[dict]]:
    """The CSV fields and rows of a subset report."""
    rows = [
        {"subset": subset_label(entry.layers), "error": entry.error, "n": entry.n}
        for entry in report.entries
    ]
    return ["subset", "error", "n"], rows


def marginals_table(marginals) -> tuple[list[str], list[dict]]:
    """The CSV fields and rows of each layer's marginal contribution."""
    rows = [
        {"layer": i + 1, "marginal": float(value)}
        for i, value in enumerate(marginals)
    ]
    return ["layer", "marginal"], rows


def write_csv_reports(out_dir, tables: dict) -> None:
    """Write each ``name -> (fieldnames, rows)`` of ``tables`` as ``out_dir / name``,
    and remove the file of a name whose table is None, a report the caller
    does not make this time, so that none left by an earlier run stays."""
    for name, table in tables.items():
        if table is None:
            (Path(out_dir) / name).unlink(missing_ok=True)
        else:
            write_csv(Path(out_dir) / name, *table)


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
