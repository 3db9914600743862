"""Spans around calls into ``ffnet``'s public functions, recorded from outside.

The tracer never edits a function. It replaces the module attributes that
refer to a traced function with a timing wrapper, and puts the originals back
when it is closed. Every ``ffnet`` module attribute that *is* the original
object gets the wrapper, so a call is caught whichever module imported the
function (``forward_pass`` is reached through ``nn.forward_trace`` and
through ``baselines``). A listed function that no longer exists is reported
as missing instead of failing the run.

Spans stay in memory. Each holds its name, start, end, parent span, the
closed-loop operation it belongs to and the run id that all spans of one
workload run share. Self time is a span's duration minus that of its direct
children; the program is single-threaded, so children never overlap.

``mflop`` and ``mb`` are computed from argument and result shapes, not
measured. ``mflop`` counts the minimum matmul work a call needs; ``mb``
counts the bytes of the arrays passed in and returned.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
import uuid

import numpy as np

PACKAGE = "ffnet"

# Public functions that get a span, as "module.function".
TRACED = (
    "data.load_idx",
    "data.link_inputs",
    "data.sample_wrong_labels",
    "data.make_linked_batches",
    "data.make_plain_batches",
    "linalg.l2_row_normalize",
    "nn.init_network",
    "nn.forward_pass",
    "nn.layer_local_grad",
    "nn.apply_adam_update",
    "nn.full_backprop_grad",
    "nn.l2_row_normalize_vjp",
    "ff.train",
    "ff.train_layerwise",
    "ff.train_alternating",
    "ff.goodness_table",
    "ff.compute_gamma",
    "ff.ff_loss_and_coeffs",
    "ff.entropy_loss_and_coeffs",
    "ff.label_goodness_scores",
    "ff.predict",
    "ff.test_error",
    "entropy.goodness_entropy_reports",
    "entropy.entropy_decompose",
    "analysis.goodness_cache",
    "analysis.evaluate_subsets",
    "analysis.marginal_contributions",
    "baselines.train_pairwise",
    "baselines.train_classic",
    "baselines.softmax_cross_entropy",
    "baselines.classic_test_error",
    "checkpoint.save_checkpoint",
    "checkpoint.load_checkpoint",
    "reports.write_csv",
    "reports.write_json",
    "fetch.load_dataset",
    "runner.run_training",
    "runner.evaluate_checkpoint",
)

_MAX_LAYERS = 4

# Per-layer metrics: name -> (unit, better). Each is a per-operation value,
# the median over the traced operations of one run.
PER_LAYER = {
    "data.make_linked_batches.calls": ("count", "lower"),
    "data.make_linked_batches.self_ms": ("ms", "lower"),
    "data.make_linked_batches.mb": ("MB-computed", "lower"),
    "data.make_plain_batches.self_ms": ("ms", "lower"),
    "data.link_inputs.calls": ("count", "lower"),
    "data.link_inputs.self_ms": ("ms", "lower"),
    "data.link_inputs.mb": ("MB-computed", "lower"),
    "data.load_idx.self_ms": ("ms", "lower"),
    "data.load_idx.mb": ("MB-computed", "lower"),
    "linalg.l2_row_normalize.calls": ("count", "lower"),
    "linalg.l2_row_normalize.self_ms": ("ms", "lower"),
    "nn.forward_pass.calls": ("count", "lower"),
    "nn.forward_pass.rows": ("rows", "lower"),
    "nn.forward_pass.self_ms": ("ms", "lower"),
    "nn.forward_pass.mflop": ("Mflop-computed", "lower"),
    "nn.forward_pass.rows_per_sample": ("rows/sample", "lower"),
    "nn.layer_local_grad.calls": ("count", "lower"),
    "nn.layer_local_grad.mflop": ("Mflop-computed", "lower"),
    **{f"nn.layer_local_grad.L{i}.self_ms": ("ms", "lower") for i in (1, 2, 3)},
    **{
        f"nn.apply_adam_update.L{i}.self_ms": ("ms", "lower")
        for i in range(1, _MAX_LAYERS + 1)
    },
    "nn.full_backprop_grad.self_ms": ("ms", "lower"),
    "nn.full_backprop_grad.mflop": ("Mflop-computed", "lower"),
    "nn.l2_row_normalize_vjp.self_ms": ("ms", "lower"),
    "ff.train.ms": ("ms", "lower"),
    "ff.goodness_table.self_ms": ("ms", "lower"),
    "ff.compute_gamma.self_ms": ("ms", "lower"),
    "ff.ff_loss_and_coeffs.self_ms": ("ms", "lower"),
    "ff.label_goodness_scores.calls": ("count", "lower"),
    "ff.label_goodness_scores.self_ms": ("ms", "lower"),
    "ff.test_error.ms": ("ms", "lower"),
    "entropy.goodness_entropy_reports.ms": ("ms", "lower"),
    "entropy.goodness_entropy_reports.self_ms": ("ms", "lower"),
    "entropy.entropy_decompose.self_ms": ("ms", "lower"),
    "analysis.goodness_cache.self_ms": ("ms", "lower"),
    "analysis.evaluate_subsets.ms": ("ms", "lower"),
    "baselines.train_pairwise.ms": ("ms", "lower"),
    "baselines.train_pairwise.self_ms": ("ms", "lower"),
    "baselines.train_classic.ms": ("ms", "lower"),
    "baselines.train_classic.self_ms": ("ms", "lower"),
    "baselines.softmax_cross_entropy.self_ms": ("ms", "lower"),
    "checkpoint.save_checkpoint.self_ms": ("ms", "lower"),
    "checkpoint.save_checkpoint.mb": ("MB-computed", "lower"),
    "checkpoint.load_checkpoint.self_ms": ("ms", "lower"),
    "reports.write_csv.calls": ("count", "lower"),
    "reports.write_csv.self_ms": ("ms", "lower"),
    "reports.write_json.self_ms": ("ms", "lower"),
    "fetch.load_dataset.ms": ("ms", "lower"),
    "runner.run_training.ms": ("ms", "lower"),
    "runner.run_training.self_ms": ("ms", "lower"),
    "runner.evaluate_checkpoint.ms": ("ms", "lower"),
    "runner.evaluate_checkpoint.self_ms": ("ms", "lower"),
    "trace.overhead_share": ("share", "lower"),
}


def _nbytes(obj) -> int:
    """Bytes of the arrays in ``obj``: arrays, datasets, batches, networks."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(item) for item in obj)
    layers = getattr(obj, "layers", None)
    if isinstance(layers, list):  # MlpNetwork
        return sum(lay.weights.nbytes + lay.biases.nbytes for lay in layers)
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields:  # Dataset, LinkedBatch
        return sum(
            getattr(obj, name).nbytes
            for name in fields
            if isinstance(getattr(obj, name), np.ndarray)
        )
    return 0


def _forward_mflop(net, rows: int, upto) -> float:
    layers = net.layers[: upto if upto is not None else len(net.layers)]
    return sum(2.0 * rows * lay.in_dim * lay.out_dim for lay in layers) / 1e6


def _backprop_mflop(net, rows: int) -> float:
    # grad_w for every layer plus the carry product for every layer but the first
    total = 0.0
    for i, lay in enumerate(net.layers):
        total += 2.0 * rows * lay.in_dim * lay.out_dim * (2 if i > 0 else 1)
    return total / 1e6


class Tracer:
    """Wraps the traced functions of the imported ``ffnet`` modules."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self.op = -1
        self._stack: list[list] = []  # [span, child seconds]
        self._patched: list[tuple] = []
        self._net = None  # last network seen, to name a layer_local_grad layer
        self._targets = []  # (original, wrapper)
        self.missing: list[str] = []
        self.unannotated: set[str] = set()
        for qualname in TRACED:
            mod_name, func_name = qualname.split(".")
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, func_name, None)
            if callable(original):
                self._targets.append((original, self._wrap(qualname, original)))
            else:
                self.missing.append(qualname)

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions; calls made before :meth:`uninstall` get spans."""
        wrappers = {id(original): wrapper for original, wrapper in self._targets}
        for name, mod in list(sys.modules.items()):
            if mod is None or not (
                name == PACKAGE or name.startswith(PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, func):
        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    span = self._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._close(span)
                        return
                    except BaseException:
                        self._close(span)
                        raise
                    span["mb"] = _nbytes(item) / 1e6
                    self._close(span)
                    yield item

            return gen_wrapper

        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            self._annotate(name, span, signature, args, kwargs, result)
            return result

        return wrapper

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> dict:
        parent = self._stack[-1][0]["id"] if self._stack else None
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "run_id": self.run_id,
            "op": self.op,
            "start": time.perf_counter(),
        }
        self.spans.append(span)
        self._stack.append([span, 0.0])
        return span

    def _close(self, span: dict) -> None:
        end = time.perf_counter()
        top, child_s = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        span["end"] = end
        dur = end - span["start"]
        span["self_s"] = dur - child_s
        if self._stack:
            self._stack[-1][1] += dur

    def _annotate(self, name, span, signature, args, kwargs, result) -> None:
        """Attach computed sizes and the layer index from the call's arguments.

        A signature that no longer fits is reported, never raised: tracing
        must not fail an operation that succeeded.
        """
        try:
            arg = signature.bind(*args, **kwargs)
            arg.apply_defaults()
            arg = arg.arguments
            if isinstance(getattr(arg.get("net"), "layers", None), list):
                self._net = arg["net"]
            if name == "nn.forward_pass":
                span["rows"] = np.shape(arg["batch"])[0]
                span["mflop"] = _forward_mflop(arg["net"], span["rows"], arg["upto"])
            elif name == "nn.layer_local_grad":
                layer = arg["layer"]
                rows = np.shape(arg["layer_input"])[0]
                span["mflop"] = 2.0 * rows * layer.in_dim * layer.out_dim / 1e6
                span["layer"] = self._layer_index(layer)
            elif name == "nn.apply_adam_update":
                span["layer"] = int(arg["layer"]) + 1
            elif name == "nn.full_backprop_grad":
                span["mflop"] = _backprop_mflop(arg["net"], np.shape(arg["batch"])[0])
            elif name in ("data.link_inputs", "data.load_idx", "checkpoint.save_checkpoint"):
                span["mb"] = (_nbytes(list(arg.values())) + _nbytes(result)) / 1e6
            elif name == "nn.init_network":
                self._net = result
        except (TypeError, KeyError, AttributeError, IndexError):
            self.unannotated.add(name)

    def _layer_index(self, layer):
        if self._net is not None:
            for i, lay in enumerate(self._net.layers):
                if lay is layer:
                    return i + 1
        return None

    # -- results ----------------------------------------------------------

    def per_op_totals(self) -> dict[int, dict[str, float]]:
        """Sum every per-layer quantity within each traced operation."""
        ops: dict[int, dict[str, float]] = {}
        for span in self.spans:
            if "end" not in span:
                continue
            tot = ops.setdefault(span["op"], {})
            name = span["name"]
            ms = (span["end"] - span["start"]) * 1e3
            self_ms = span["self_s"] * 1e3

            def add(key, value):
                tot[key] = tot.get(key, 0.0) + value

            add(f"{name}.calls", 1)
            add(f"{name}.ms", ms)
            add(f"{name}.self_ms", self_ms)
            for key in ("rows", "mflop", "mb"):
                if key in span:
                    add(f"{name}.{key}", span[key])
            if span.get("layer") is not None:
                add(f"{name}.L{span['layer']}.self_ms", self_ms)
        return ops

    def metrics(self, samples_per_op: float, overhead_share: float) -> dict:
        """Median over traced operations of every per-layer metric."""
        ops = self.per_op_totals()
        out = {}
        for name, (unit, _) in PER_LAYER.items():
            if name == "trace.overhead_share":
                value = overhead_share
            elif name == "nn.forward_pass.rows_per_sample":
                value = statistics.median(
                    tot.get("nn.forward_pass.rows", 0.0) / samples_per_op
                    for tot in ops.values()
                ) if ops else 0.0
            else:
                value = statistics.median(
                    tot.get(name, 0.0) for tot in ops.values()
                ) if ops else 0.0
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
