"""Property tests of the linked-batch sampler, the wrong-label draw, the
backward pass of row normalization, the functional-entropy identities, the
precedence of CLI flags over a config file over defaults and the outcome of
every run configuration, and a check that a falsified property is reported
as a test failure.

In the sampler properties each sample carries its index in its one pixel, so
a batch row can be traced back to the sample it came from.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
from conftest import fd_grad
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ffnet import runner
from ffnet.checkpoint import load_checkpoint
from ffnet.cli import _config_from_args, build_parser
from ffnet.data import N_LABELS, Dataset, make_linked_batches, sample_wrong_labels
from ffnet.entropy import entropy_decompose, functional_entropy, scaled_kl_identity
from ffnet.errors import ConfigError
from ffnet.ff import GAMMA_MODES, SCHEDULES
from ffnet.linalg import l2_row_normalize, make_rng
from ffnet.nn import l2_row_normalize_vjp
from ffnet.runner import METHOD_TABLE, METHODS, RunConfig, evaluate_checkpoint, run_training
from ffnet.synth import synthetic_dataset

# Bounded so the properties add about a second to the suite.
SETTINGS = settings(max_examples=60, deadline=None)

GOODNESS = st.floats(0.0, 100.0, allow_subnormal=False)


@SETTINGS
@given(
    labels=st.lists(st.integers(0, N_LABELS - 1), min_size=1, max_size=40),
    batch_size=st.integers(1, 50),
    negatives=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_linked_batches_cover_every_sample_once(labels, batch_size, negatives, seed):
    n = len(labels)
    labels = np.array(labels, dtype=np.int64)
    ds = Dataset(np.arange(n, dtype=np.float64)[:, None] / n, labels, "synthetic", "train")
    rng = make_rng(seed)
    for _ in range(2):  # a second epoch reshuffles and redraws
        seen = []
        for batch in make_linked_batches(ds, rng, batch_size, negatives):
            inputs = batch.linked_inputs()
            rows = inputs.shape[0]
            m = rows // (1 + negatives)
            assert rows == m * (1 + negatives)
            assert m == min(batch_size, n - len(seen))
            np.testing.assert_array_equal(
                batch.polarity, np.concatenate([np.ones(m), -np.ones(m * negatives)])
            )
            ids = np.rint(inputs[:, 0] * n).astype(np.int64)
            seen.extend(ids[:m])
            # Negatives repeat the positives' samples with their true labels.
            np.testing.assert_array_equal(ids[m:], np.tile(ids[:m], negatives))
            # A row's true label is its sample's positive label.
            true_labels = np.tile(batch.linked_labels[:m], 1 + negatives)
            np.testing.assert_array_equal(true_labels, labels[ids])
            # The one-hot block names the linked label; only positives name the truth.
            linked = np.argmax(inputs[:, 1:], axis=1)
            np.testing.assert_array_equal(linked, batch.linked_labels)
            np.testing.assert_array_equal(linked[:m], labels[ids[:m]])
            assert np.all(linked[m:] != labels[ids[m:]])
        assert sorted(seen) == list(range(n))


@SETTINGS
@given(
    labels=st.lists(st.integers(0, N_LABELS - 1), min_size=0, max_size=200),
    seed=st.integers(0, 2**32 - 1),
)
def test_wrong_labels_are_never_the_truth(labels, seed):
    labels = np.array(labels, dtype=np.int64)
    wrong = sample_wrong_labels(labels, make_rng(seed))
    assert wrong.shape == labels.shape
    assert np.all((wrong >= 0) & (wrong < N_LABELS))
    assert np.all(wrong != labels)


@SETTINGS
@given(
    quarters=st.lists(
        st.lists(st.integers(-12, 12), min_size=3, max_size=3), min_size=1, max_size=4
    ),
    zero_rows=st.lists(st.booleans(), min_size=4, max_size=4),
    epsilon=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_normalize_vjp_matches_central_differences(quarters, zero_rows, epsilon, seed):
    # Entries are multiples of 1/4, so a row is all zero or has norm >= 1/4,
    # where the map is smooth enough for a 1e-6 step. On an all-zero row the
    # map is a / (|a| + eps), whose difference quotient is 1 / (h + eps):
    # epsilon >= 0.05 keeps that within 2e-5 of the slope 1 / eps.
    act = np.array(quarters, dtype=np.float64) / 4.0
    act[np.array(zero_rows[: act.shape[0]])] = 0.0
    grad_out = make_rng(seed).standard_normal(act.shape)

    def loss():
        return float(np.sum(grad_out * l2_row_normalize(act, epsilon)))

    numeric = fd_grad(loss, act)
    analytic = l2_row_normalize_vjp(act, l2_row_normalize(act, epsilon), grad_out, epsilon)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


@SETTINGS
@given(values=st.lists(GOODNESS, min_size=1, max_size=30), scale=st.floats(0.01, 100.0))
def test_entropy_is_homogeneous_of_degree_one(values, scale):
    h = np.array(values)
    want = scale * functional_entropy(h)
    assert abs(functional_entropy(scale * h) - want) <= 1e-10 * max(1.0, abs(want))


@SETTINGS
@given(values=st.lists(GOODNESS, min_size=1, max_size=30))
def test_entropy_is_mean_times_kl(values):
    entropy, scaled_kl = scaled_kl_identity(np.array(values))
    assert entropy >= -1e-12
    assert abs(entropy - scaled_kl) <= 1e-10 * max(1.0, abs(entropy))


@SETTINGS
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 5),
    data=st.data(),
)
def test_entropy_decomposes_into_across_plus_mean_within(rows, cols, data):
    cells = data.draw(st.lists(GOODNESS, min_size=rows * cols, max_size=rows * cols))
    values = np.array(cells).reshape(rows, cols)
    report = entropy_decompose(values)
    recomposed = report.across_layers + report.within_layer.mean()
    assert abs(report.overall - recomposed) <= 1e-9 * max(1.0, values.mean())
    assert report.within_layer.shape == (cols,)


RUN_FIELDS = {
    "theta": st.floats(0.1, 100.0),
    "epochs": st.integers(1, 500),
    "batch_size": st.integers(1, 1000),
    "seed": st.integers(0, 2**32 - 1),
    "eval_every": st.integers(1, 50),
}


@SETTINGS
@given(
    from_file=st.fixed_dictionaries({}, optional=RUN_FIELDS),
    from_flags=st.fixed_dictionaries({}, optional=RUN_FIELDS),
)
def test_cli_flags_beat_config_file_beat_defaults(
    tmp_path_factory, from_file, from_flags
):
    config_file = tmp_path_factory.getbasetemp() / "precedence.json"
    config_file.write_text(json.dumps(from_file))
    argv = ["train", "--config", str(config_file)]
    for name, value in from_flags.items():
        argv += ["--" + name.replace("_", "-"), repr(value)]
    cfg = _config_from_args(build_parser().parse_args(argv)).resolved()
    default = RunConfig()
    for name in RUN_FIELDS:
        want = from_flags.get(name, from_file.get(name, getattr(default, name)))
        assert getattr(cfg, name) == want, name


# Layer dims too short, with a zero entry, of the wrong input width, or whose
# last layer is 9 wide (a fault for the label-head method alone), or a test
# split wider than the train split.
FAULTS = ("short", "non_positive", "input", "head", "test_width")
RUN_SPACE = {
    "method": st.sampled_from(METHODS),
    "schedule": st.sampled_from((None, *SCHEDULES)),
    "gamma_mode": st.sampled_from((None, *GAMMA_MODES)),
    "depth": st.integers(1, 3),
    "n_train": st.integers(0, 7),
    "train_subset": st.sampled_from((None, 1, 3)),
    "n_test": st.integers(0, 5),
    "batch_size": st.sampled_from((1, 2, 200)),
    "negatives": st.sampled_from((1, 3)),
    "entropy_eval_n": st.sampled_from((2, 50)),
    "eval_every": st.sampled_from((1, 5)),
    "fault": st.none() | st.sampled_from(FAULTS),
}


# A depth-1 ff run, the base of the pinned examples.
BASE_RUN = {
    "method": "ff", "schedule": None, "gamma_mode": None, "depth": 1,
    "n_train": 7, "train_subset": None, "n_test": 5, "batch_size": 2,
    "negatives": 1, "entropy_eval_n": 2, "eval_every": 1, "fault": None,
}


# About 15 ms per configuration at these sizes; half of the draws have no fault.
@settings(max_examples=200, deadline=None)
@given(**RUN_SPACE)
@example(**BASE_RUN)
@example(**{**BASE_RUN, "n_test": 0})
@example(**{**BASE_RUN, "method": "bp_classic", "n_test": 0})
@example(**{**BASE_RUN, "method": "entropy_ff", "n_test": 1})
@example(**{**BASE_RUN, "fault": "test_width"})
@example(**{**BASE_RUN, "fault": "short"})
@example(**{**BASE_RUN, "fault": "non_positive"})
@example(**{**BASE_RUN, "fault": "input"})
@example(**{**BASE_RUN, "method": "bp_classic", "fault": "head"})
def test_every_config_trains_and_evaluates_or_fails_before_writing(
    method, schedule, gamma_mode, depth, n_train, train_subset, n_test,
    batch_size, negatives, entropy_eval_n, eval_every, fault,
):
    """A run trains finite weights, and ``ffnet eval`` of its checkpoint on the
    same split repeats its test error; or it raises ConfigError before it
    writes anything. Every fault but a 9-wide last layer of a linked method
    raises."""
    d = 4
    linked = METHOD_TABLE[method].linked
    hidden = [3] * depth if linked else [3] * (depth - 1) + [N_LABELS]
    dims = [d + N_LABELS if linked else d, *hidden]
    dims = {
        "short": dims[:1],
        "non_positive": [*dims[:-1], 0],
        "input": [dims[0] + 1, *dims[1:]],
        "head": [*dims[:-1], N_LABELS - 1],
    }.get(fault, dims)
    must_fail = fault is not None and not (fault == "head" and linked)
    train_ds = synthetic_dataset(n_train, d=d, seed=1, split="train")
    test_d = d + 2 if fault == "test_width" else d
    test_ds = synthetic_dataset(n_test, d=test_d, seed=1, split="test")
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        runner, "load_dataset", lambda name, split, data_dir: test_ds
    ):
        run_dir = Path(tmp) / "run"
        cfg = RunConfig(
            dataset="synthetic", method=method, schedule=schedule,
            gamma_mode=gamma_mode, epochs=2, batch_size=batch_size, layer_dims=dims,
            output_dir=str(run_dir), entropy_eval_n=entropy_eval_n,
            eval_every=eval_every, train_subset=train_subset,
            negatives_per_positive=negatives,
        )
        try:
            summary = run_training(cfg, train_ds, test_ds)
        except ConfigError:
            assert not run_dir.exists()
            return
        assert not must_fail
        net, _, _ = load_checkpoint(run_dir / "checkpoint.npz")
        for layer in net.layers:
            assert np.isfinite(layer.weights).all() and np.isfinite(layer.biases).all()
        assert 0.0 <= summary["final_test_error"] <= 1.0
        evaluated = evaluate_checkpoint(run_dir / "checkpoint.npz", Path(tmp) / "eval")
        assert evaluated["test_error"] == summary["final_test_error"]


def test_falsified_property_is_one_failure_under_the_suite_config(tmp_path):
    """Hypothesis's failure report must not trip the warnings-as-errors
    setting into an internal error that stops the run."""
    (tmp_path / "test_example.py").write_text(textwrap.dedent('''
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_falsified(x):
            assert x < 5

        def test_passes():
            pass
    '''))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(pyproject), "--rootdir", str(tmp_path), "test_example.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout
