"""The benchmark tracer still reads every training call it times.

``perfbench/tracer.py`` binds the arguments of traced calls by name to size
them and to attribute them to a layer. A signature change that breaks the
binding does not fail a benchmark run: the span is only listed as
unannotated and its per-layer metrics read 0. These tests run a tiny
alternating or layerwise ``ff.train`` and ``baselines.train_pairwise`` under
the tracer and check that every span was annotated and that the
local-gradient and Adam spans name every layer. The tracer module is
imported, never edited.
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

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


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
