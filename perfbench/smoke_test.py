"""Smoke test of the benchmark at tiny sizes.

Runs every workload named in ``BENCHMARK.json`` once untraced and once traced
(``--tiny --seconds 0``: set-up, a warm-up operation and one measured
operation), and checks that the result line names every metric of
``BENCHMARK.json`` with its unit. It also checks that the benchmark refuses
to run, without printing a result, where only ``BENCHMARK.json`` and the
benchmark's own files exist.

    python3 perfbench/smoke_test.py      # or: python3 -m pytest perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_is_printed_with_its_unit():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = _result(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, trace, result)
            assert result["attempted"] >= 1 and result["failed"] == 0
            expected = {m["name"]: m["unit"] for m in SPEC[group]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, (workload, trace, set(got) ^ set(expected))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name)
                if group == "end_to_end":
                    assert m["value"] > 0, (workload, name)


def test_refuses_to_run_without_the_package():
    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(
                ROOT / path, bare / path, ignore=shutil.ignore_patterns(".work", "out")
            )
        workload = SPEC["workloads"][0]["name"]
        proc = _run(bare, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run still uses it


if __name__ == "__main__":
    test_every_metric_is_printed_with_its_unit()
    test_refuses_to_run_without_the_package()
    print("smoke test passed")
