"""The benchmark still runs against the package and reads every call it times.

``perfbench/tracer.py`` binds the arguments of traced calls by name to size
them and to attribute them to a layer. A signature change that breaks the
binding does not fail a benchmark run: the span is only listed as
unannotated and its per-layer metrics read 0. These tests run a tiny
alternating or layerwise ``ff.train`` and ``baselines.train_pairwise`` under
the tracer and check that every span was annotated and that the
local-gradient and Adam spans name every layer.

``perfbench/workloads.py`` calls into the package the way ``ffnet train``
and ``ffnet eval`` do (``RunConfig``, ``ff_config()``, the trainers). A
change that breaks one of those calls would otherwise surface only when the
benchmark runs, so every workload is run once here at its tiny sizes and
its output check must pass. The perfbench modules are imported, never
edited.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import ffnet  # noqa: F401  (imports every module the tracer wraps)
from ffnet import baselines, ff
from ffnet.linalg import make_rng
from ffnet.nn import init_network
from ffnet.synth import synthetic_pair

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Traced names that no longer exist in the package; the next change to the
# benchmark drops them from perfbench/tracer.py.
DEAD_TRACED = ["ff.train_layerwise", "ff.train_alternating", "analysis.goodness_cache"]


def _load(name: str):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return _load("tracer")


@pytest.fixture(scope="module")
def workloads_module():
    return _load("workloads")


def _check_training_spans(tracer_module, schedule: str, gamma_mode: str) -> None:
    train_ds, _ = synthetic_pair(80, 10, d=12, seed=3)
    dims = [22, 10, 8, 6]
    depth = len(dims) - 1
    cfg = ff.FfConfig(
        theta=3.0, epochs=1, batch_size=20, seed=1,
        schedule=schedule, gamma_mode=gamma_mode,
    )
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        ff.train(init_network(dims, make_rng(0)), train_ds, cfg)
        baselines.train_pairwise(init_network(dims, make_rng(1)), train_ds, cfg)
    finally:
        tracer.uninstall()

    assert tracer.unannotated == set()
    names = {span["name"] for span in tracer.spans}
    assert {"ff.train", "baselines.train_pairwise", "nn.forward_pass"} <= names
    expected = set(range(1, depth + 1))
    for name in ("nn.layer_local_grad", "nn.apply_adam_update"):
        layers = [span.get("layer") for span in tracer.spans if span["name"] == name]
        assert set(layers) == expected, name
    local = [span for span in tracer.spans if span["name"] == "nn.layer_local_grad"]
    assert all(span["mflop"] > 0 for span in local)


def test_training_spans_are_annotated_with_layers(tracer_module):
    _check_training_spans(tracer_module, "alternating", "all_other_layers")


def test_layerwise_training_spans_are_annotated_with_layers(tracer_module):
    _check_training_spans(tracer_module, "layerwise", "predecessors_only")


def test_only_the_known_dead_names_are_missing(tracer_module):
    assert tracer_module.Tracer().missing == DEAD_TRACED


@pytest.mark.parametrize(
    "workload", ["train_collab", "train_ff_snapshots", "eval_checkpoint", "train_backprop"]
)
def test_workload_runs_and_passes_its_check(workloads_module, tmp_path, workload):
    wl = workloads_module
    _, fx = wl.set_up(workload, wl.TINY[workload], 3, tmp_path)
    if workload == "eval_checkpoint":
        fx.reference_preds = wl.reference_predictions(
            fx.net, fx.test.images[: wl.REFERENCE_N]
        )
    result = wl.OPS[workload](fx)
    assert wl.check(workload, fx, result.outputs) == []
