"""CSV and JSON emission. Every file is written atomically (temp + rename)."""

from __future__ import annotations

import csv
import io
import json
import os
import tempfile
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


def history_row(epoch, layer, loss_kind, split, loss, good_pos, good_neg) -> dict:
    """One history.csv row, fields in HISTORY_FIELDS order; ``layer`` is 1-based."""
    values = (epoch, layer, loss_kind, split, loss, good_pos, good_neg)
    return dict(zip(HISTORY_FIELDS, values))


def atomic_write(path, write) -> None:
    """Call ``write`` on a binary handle to a temp file, then rename it onto
    ``path``. Checkpoints and downloads are written through it as well."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
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


def entropy_row(epoch: int, report) -> dict:
    row = {
        "epoch": epoch,
        "split": report.split,
        "overall": report.overall,
        "across_layers": report.across_layers,
    }
    for i, value in enumerate(report.within_layer):
        row[f"within_layer_{i + 1}"] = value
    return row


def write_entropy_csv(path, rows, depth: int) -> None:
    write_csv(path, entropy_fields(depth), rows)


def write_subsets_csv(path, report) -> None:
    from .analysis import subset_label

    rows = [
        {"subset": subset_label(entry.layers), "error": entry.error, "n": entry.n}
        for entry in report.entries
    ]
    write_csv(path, ["subset", "error", "n"], rows)


def write_marginals_csv(path, marginals) -> None:
    rows = [
        {"layer": i + 1, "marginal": float(value)}
        for i, value in enumerate(marginals)
    ]
    write_csv(path, ["layer", "marginal"], rows)


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")
