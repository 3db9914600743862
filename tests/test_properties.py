"""Property tests of the linked-batch sampler and the wrong-label draw.

Each sample carries its index in its one pixel, so a batch row can be traced
back to the sample it came from.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ffnet.data import N_LABELS, Dataset, make_linked_batches, sample_wrong_labels
from ffnet.linalg import make_rng

# Bounded so the two properties add well under a second to the suite.
SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(
    labels=st.lists(st.integers(0, N_LABELS - 1), min_size=1, max_size=40),
    batch_size=st.integers(1, 50),
    negatives=st.integers(0, 3),
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
            rows = batch.inputs.shape[0]
            m = rows // (1 + negatives)
            assert rows == m * (1 + negatives)
            assert m == min(batch_size, n - len(seen))
            np.testing.assert_array_equal(
                batch.polarity, np.concatenate([np.ones(m), -np.ones(m * negatives)])
            )
            ids = np.rint(batch.inputs[:, 0] * n).astype(np.int64)
            seen.extend(ids[:m])
            # Negatives repeat the positives' samples with their true labels.
            np.testing.assert_array_equal(ids[m:], np.tile(ids[:m], negatives))
            np.testing.assert_array_equal(batch.true_labels, labels[ids])
            # The one-hot block names the linked label; only positives name the truth.
            linked = np.argmax(batch.inputs[:, 1:], axis=1)
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
