"""Benchmark of the ffnet package, measured from outside the package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are defined in ``workloads.py``. With ``--trace 0`` the run
sets up ``SETUPS`` times, runs one untimed warm-up operation, then repeats
the workload's operation in a closed loop for ``--seconds`` and reports the
end-to-end metrics as medians over the operations. With ``--trace 1`` it
alternates untraced and traced operations for ``--seconds`` and reports the
per-layer metrics from the spans of the traced ones (see ``tracer.py``); the
spans are written to ``perfbench/out/``.

Every operation is checked. An operation that raises, whose outputs fail a
check, or whose outputs differ bit for bit from the warm-up operation on the
same inputs (traced or not) counts as failed. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

Load is one process with one BLAS thread.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads its BLAS

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 5

# End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "job_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("train_collab", "train_ff_snapshots", "eval_checkpoint", "train_backprop")


def _import_package():
    """Import ``ffnet`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "ffnet" / "__init__.py").is_file():
        sys.exit(f"error: no ffnet package at {SRC / 'ffnet'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ffnet  # noqa: F401

    if Path(ffnet.__file__).resolve().parent != (SRC / "ffnet").resolve():
        sys.exit(f"error: imported ffnet from {ffnet.__file__}, not from {SRC}")


def _git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_record(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": blas,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "workload_seed": seed,
    }


class Loop:
    """Runs and checks closed-loop operations of one workload."""

    def __init__(self, workloads, workload: str, fx):
        self.workloads = workloads
        self.workload = workload
        self.fx = fx
        self.attempted = 0
        self.failed = 0
        self.reference = None  # outputs of the first operation

    def run(self, tracer=None):
        """One operation; returns its OpResult, or None when it failed."""
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.install()
            try:
                result = self.workloads.OPS[self.workload](self.fx)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        except Exception:
            self.failed += 1
            print(f"operation {self.attempted} raised:", file=sys.stderr)
            traceback.print_exc()
            return None
        problems = self.workloads.check(self.workload, self.fx, result.outputs)
        if self.reference is None:
            self.reference = result.outputs
        elif not self.workloads.same_outputs(self.reference, result.outputs):
            problems.append("outputs differ bit for bit from the first operation")
        result.outputs = None  # keep only the reference, so memory stays flat
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"operation {self.attempted} failed: {problem}", file=sys.stderr)
            return None
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny sizes, for the smoke test only"
    )
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import Tracer

    seed = args.seed % 2**32
    sizes = (workloads.TINY if args.tiny else workloads.SIZES)[args.workload]
    print("machine " + json.dumps(machine_record(seed), sort_keys=True))
    print(f"workload {args.workload} seed {seed} seconds {args.seconds:g} trace {args.trace}")

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        for _ in range(SETUPS):
            shutil.rmtree(work, ignore_errors=True)
            elapsed, fx = workloads.set_up(args.workload, sizes, seed, work)
            setup_times.append(elapsed)
        if args.workload == "eval_checkpoint":
            fx.reference_preds = workloads.reference_predictions(
                fx.net, fx.test.images[: workloads.REFERENCE_N]
            )
        loop = Loop(workloads, args.workload, fx)
        loop.run()  # warm-up; its outputs are the reference for the others
        n_samples = workloads.samples_per_op(args.workload, sizes)
        if args.trace:
            metrics, lines = _traced(args, loop, Tracer(), n_samples)
        else:
            metrics, lines = _untraced(args, loop, n_samples, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    for line in lines:
        print(line)
    share = loop.failed / loop.attempted
    print(f"ops_failed_share {share:.6g} ({loop.failed} of {loop.attempted} operations)")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _until(seconds: float, step) -> None:
    """Call ``step`` until ``seconds`` have passed, at least once."""
    deadline = time.perf_counter() + seconds
    while True:
        step()
        if time.perf_counter() >= deadline:
            break


def _median_or_zero(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _untraced(args, loop: Loop, n_samples: int, setup_times):
    results = []
    _until(args.seconds, lambda: results.append(loop.run()))
    done = [r for r in results if r is not None]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup_times),
        "samples_per_s": _median_or_zero(n_samples / r.samples_s for r in done),
        "job_s": _median_or_zero(r.job_s for r in done),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
    lines = [
        f"timed operations {len(done)}",
        "samples_s per operation " + " ".join(f"{r.samples_s:.4f}" for r in done),
        "job_s per operation " + " ".join(f"{r.job_s:.4f}" for r in done),
        "set-up seconds " + " ".join(f"{t:.4f}" for t in setup_times),
    ]
    return metrics, lines


def _traced(args, loop: Loop, tracer, n_samples: int):
    """Alternate untraced and traced operations; per-layer metrics from the spans."""
    plain, traced = [], []

    def step():
        plain.append(loop.run())
        tracer.op += 1
        traced.append(loop.run(tracer))

    _until(args.seconds, step)
    plain = [r.total_s for r in plain if r is not None]
    traced = [r.total_s for r in traced if r is not None]
    overhead = (
        statistics.median(traced) / statistics.median(plain) - 1.0
        if plain and traced
        else 0.0
    )
    metrics = tracer.metrics(n_samples, overhead)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed % 2**32}.jsonl"
    tracer.write(spans_path)
    lines = [
        f"traced operations {len(traced)}, untraced operations {len(plain)}",
        f"run id {tracer.run_id}; {len(tracer.spans)} spans written to "
        f"{spans_path.relative_to(ROOT)}",
        "missing traced functions: " + (", ".join(tracer.missing) or "none"),
        "calls whose sizes could not be computed: "
        + (", ".join(sorted(tracer.unannotated)) or "none"),
    ]
    for text, holds in loop.workloads.predictions(args.workload, loop.fx.sizes, metrics):
        lines.append(f"prediction {'holds' if holds else 'FAILS'}: {text}")
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
