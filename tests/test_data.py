import struct
import tracemalloc

import numpy as np
import pytest

from ffnet.data import (
    Dataset,
    link_inputs,
    load_cifar_bin,
    load_idx,
    make_linked_batches,
    make_plain_batches,
    one_hot,
    sample_wrong_labels,
    write_idx,
)
from ffnet.errors import ConfigError, DataFormatError
from ffnet.linalg import make_rng
from ffnet.synth import synthetic_dataset


@pytest.fixture
def idx_pair(tmp_path, rng):
    images = rng.integers(0, 256, size=(50, 28, 28)).astype(np.uint8)
    labels = rng.integers(0, 10, size=50).astype(np.uint8)
    img_path = tmp_path / "images-idx3-ubyte"
    lab_path = tmp_path / "labels-idx1-ubyte"
    write_idx(img_path, images)
    write_idx(lab_path, labels)
    return img_path, lab_path, images, labels


class TestIdx:
    def test_round_trip(self, idx_pair):
        img_path, lab_path, images, labels = idx_pair
        ds = load_idx(img_path, lab_path)
        assert ds.n == 50 and ds.d == 784
        np.testing.assert_array_equal(ds.labels, labels)
        np.testing.assert_array_equal(ds.images, images.reshape(50, -1) / 255.0)

    def test_empty_pair_keeps_the_image_width(self, tmp_path):
        write_idx(tmp_path / "images", np.zeros((0, 28, 28)))
        write_idx(tmp_path / "labels", np.zeros(0))
        ds = load_idx(tmp_path / "images", tmp_path / "labels")
        assert ds.images.shape == (0, 784) and ds.labels.shape == (0,)

    def test_gzip_autodetected(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(8, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, size=8).astype(np.uint8)
        img_path = tmp_path / "images.gz"
        lab_path = tmp_path / "labels.gz"
        write_idx(img_path, images)
        write_idx(lab_path, labels)
        with open(img_path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"
        ds = load_idx(img_path, lab_path)
        np.testing.assert_array_equal(ds.images * 255.0, images.reshape(8, -1))

    def test_gzip_header_is_deterministic_and_fast(self, tmp_path, idx_pair):
        _, _, images, _ = idx_pair
        first = tmp_path / "a-images-idx3-ubyte.gz"
        second = tmp_path / "b-images-idx3-ubyte.gz"
        write_idx(first, images)
        write_idx(second, images)
        head = first.read_bytes()[:10]
        assert head[3] == 0  # FLG: no file name stored
        assert head[4:8] == bytes(4)  # MTIME
        assert head[8] == 4  # XFL: fastest compression
        assert first.read_bytes() == second.read_bytes()

    def test_corrupt_gzip_is_a_format_error(self, tmp_path, idx_pair):
        _, lab_path, _, _ = idx_pair
        bad = tmp_path / "images.gz"
        # A valid gzip header, then a deflate block of the reserved type 3.
        bad.write_bytes(b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff\x07" + bytes(32))
        with pytest.raises(DataFormatError, match="images file .*unreadable"):
            load_idx(bad, lab_path)

    def test_loading_twice_is_bitwise_identical(self, idx_pair):
        img_path, lab_path, _, _ = idx_pair
        a = load_idx(img_path, lab_path)
        b = load_idx(img_path, lab_path)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_wrong_magic_names_expected_and_found(self, idx_pair):
        img_path, lab_path, _, _ = idx_pair
        with pytest.raises(DataFormatError, match="0x00000803.*0x00000801"):
            load_idx(lab_path, lab_path)

    def test_truncated_file_is_a_format_error(self, tmp_path, idx_pair):
        img_path, lab_path, _, _ = idx_pair
        clipped = tmp_path / "clipped"
        clipped.write_bytes(img_path.read_bytes()[:100])
        with pytest.raises(DataFormatError, match="expected .* bytes"):
            load_idx(clipped, lab_path)

    def test_truncated_header_is_a_format_error(self, tmp_path):
        stub = tmp_path / "stub"
        stub.write_bytes(struct.pack(">I", 0x00000803) + b"\x00\x00")
        with pytest.raises(DataFormatError, match="truncated"):
            load_idx(stub, stub)

    def test_count_mismatch_between_files(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(5, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, size=4).astype(np.uint8)
        write_idx(tmp_path / "im", images)
        write_idx(tmp_path / "la", labels)
        with pytest.raises(DataFormatError, match="5 images vs 4 labels"):
            load_idx(tmp_path / "im", tmp_path / "la")


class TestCifar:
    def _write_batch(self, path, rng, n):
        records = np.zeros((n, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, size=n)
        records[:, 1:] = rng.integers(0, 256, size=(n, 3072))
        path.write_bytes(records.tobytes())
        return records

    def test_concatenates_batches(self, tmp_path, rng):
        r1 = self._write_batch(tmp_path / "b1.bin", rng, 7)
        r2 = self._write_batch(tmp_path / "b2.bin", rng, 5)
        ds = load_cifar_bin([tmp_path / "b1.bin", tmp_path / "b2.bin"])
        assert ds.n == 12 and ds.d == 3072
        np.testing.assert_array_equal(
            ds.labels, np.concatenate([r1[:, 0], r2[:, 0]])
        )
        np.testing.assert_allclose(ds.images[0], r1[0, 1:] / 255.0)

    def test_pixels_match_float_division_bitwise(self, tmp_path, rng):
        r1 = self._write_batch(tmp_path / "b1.bin", rng, 7)
        r2 = self._write_batch(tmp_path / "b2.bin", rng, 5)
        ds = load_cifar_bin([tmp_path / "b1.bin", tmp_path / "b2.bin"])
        expected = np.concatenate([r1, r2])[:, 1:].astype(np.float64) / 255.0
        assert ds.images.tobytes() == expected.tobytes()

    def test_peak_memory_is_near_the_images_array(self, tmp_path, rng):
        paths = [tmp_path / f"b{i}.bin" for i in range(3)]
        for path in paths:
            self._write_batch(path, rng, 200)
        tracemalloc.start()
        try:
            ds = load_cifar_bin(paths)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.n == 600
        assert peak <= 1.3 * ds.images.nbytes

    def test_bad_record_size(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"\x00" * 5000)
        with pytest.raises(DataFormatError, match="3073"):
            load_cifar_bin([tmp_path / "bad.bin"])

    def test_empty_file_warns_and_yields_empty_dataset(self, tmp_path):
        (tmp_path / "empty.bin").write_bytes(b"")
        with pytest.warns(UserWarning, match="empty"):
            ds = load_cifar_bin([tmp_path / "empty.bin"])
        assert ds.n == 0


class TestDatasetValidation:
    def test_known_name_enforces_dimension(self):
        with pytest.raises(DataFormatError, match="784"):
            Dataset(np.zeros((3, 100)), np.zeros(3, dtype=int), "mnist", "train")

    def test_pixel_range_enforced(self):
        with pytest.raises(DataFormatError, match=r"\[0, 1\]"):
            Dataset(np.full((2, 4), 2.0), np.zeros(2, dtype=int), "synthetic", "train")

    def test_label_range_enforced(self):
        with pytest.raises(DataFormatError, match="labels"):
            Dataset(np.zeros((2, 4)), np.array([0, 11]), "synthetic", "train")


class TestLinking:
    def test_one_hot_blocks_sum_to_one(self, rng):
        labels = rng.integers(0, 10, size=100)
        blocks = one_hot(labels)
        np.testing.assert_array_equal(blocks.sum(axis=1), np.ones(100))

    def test_linked_dimension_is_d_plus_ten(self, rng):
        images = rng.uniform(size=(5, 17))
        assert link_inputs(images, np.zeros(5, dtype=int)).shape == (5, 27)

    def test_one_hot_appended_after_pixels(self, rng):
        images = rng.uniform(size=(1, 4))
        linked = link_inputs(images, np.array([3]))
        np.testing.assert_array_equal(linked[0, :4], images[0])
        np.testing.assert_array_equal(linked[0, 4:], one_hot([3])[0])


class TestNegativeSampling:
    def test_wrong_labels_never_match_truth(self):
        rng = make_rng(0)
        true = rng.integers(0, 10, size=100_000)
        wrong = sample_wrong_labels(true, rng)
        assert np.all(wrong != true)
        assert wrong.min() >= 0 and wrong.max() <= 9

    def test_wrong_labels_uniform_within_three_sigma(self):
        rng = make_rng(1)
        n = 100_000
        true = np.full(n, 4)
        wrong = sample_wrong_labels(true, rng)
        counts = np.bincount(wrong, minlength=10)
        assert counts[4] == 0
        p = 1.0 / 9.0
        sigma = np.sqrt(n * p * (1.0 - p))
        others = np.delete(counts, 4)
        assert np.all(np.abs(others - n * p) <= 3.0 * sigma)


class TestLinkedBatches:
    def test_batch_structure(self):
        ds = synthetic_dataset(55, d=16, seed=3)
        rng = make_rng(5)
        batches = list(make_linked_batches(ds, rng, batch_size=20))
        assert [b.linked_inputs().shape[0] for b in batches] == [40, 40, 30]
        for batch in batches:
            assert batch.linked_inputs().shape[1] == 26
            pos = batch.polarity > 0
            np.testing.assert_array_equal(
                batch.linked_labels[pos], batch.true_labels[pos]
            )
            assert np.all(batch.linked_labels[~pos] != batch.true_labels[~pos])
            onehot_blocks = batch.linked_inputs()[:, 16:]
            np.testing.assert_array_equal(onehot_blocks.sum(axis=1), 1.0)

    def test_two_negatives_per_positive(self):
        ds = synthetic_dataset(20, d=8, seed=3)
        batches = list(
            make_linked_batches(ds, make_rng(0), batch_size=10, negatives_per_positive=2)
        )
        assert batches[0].linked_inputs().shape[0] == 30
        assert int((batches[0].polarity < 0).sum()) == 20

    def test_same_seed_gives_identical_stream(self):
        ds = synthetic_dataset(40, d=8, seed=3)
        stream_a = list(make_linked_batches(ds, make_rng(7), 16))
        stream_b = list(make_linked_batches(ds, make_rng(7), 16))
        for a, b in zip(stream_a, stream_b):
            np.testing.assert_array_equal(a.linked_inputs(), b.linked_inputs())
            np.testing.assert_array_equal(a.linked_labels, b.linked_labels)

    @pytest.mark.parametrize("negatives", [1, 3])
    def test_linked_form_is_the_vstacked_linked_matrix(self, negatives):
        """The batch stream draws what it always drew, and ``linked_inputs``
        rebuilds the positives' linked rows stacked on the negatives'."""
        ds = synthetic_dataset(23, d=8, seed=3)
        rng, oracle_rng = make_rng(11), make_rng(11)
        for _ in range(2):
            batches = list(make_linked_batches(ds, rng, 10, negatives))
            order = oracle_rng.permutation(ds.n)
            assert len(batches) == 3
            for start, batch in zip(range(0, ds.n, 10), batches):
                idx = order[start : start + 10]
                images, true = ds.images[idx], ds.labels[idx]
                wrong = sample_wrong_labels(np.tile(true, negatives), oracle_rng)
                want = np.vstack(
                    [
                        link_inputs(images, true),
                        link_inputs(np.tile(images, (negatives, 1)), wrong),
                    ]
                )
                np.testing.assert_array_equal(batch.images, images)
                assert batch.copies == 1 + negatives
                assert batch.linked_inputs().tobytes() == want.tobytes()
                np.testing.assert_array_equal(
                    batch.linked_labels, np.concatenate([true, wrong])
                )

    def test_epochs_reshuffle_and_resample(self):
        ds = synthetic_dataset(40, d=8, seed=3)
        rng = make_rng(7)
        first = list(make_linked_batches(ds, rng, 40))[0]
        second = list(make_linked_batches(ds, rng, 40))[0]
        assert not np.array_equal(first.true_labels, second.true_labels) or not np.array_equal(
            first.linked_labels, second.linked_labels
        )

    def test_bad_batch_size(self):
        ds = synthetic_dataset(10, d=8, seed=0)
        with pytest.raises(ConfigError):
            list(make_linked_batches(ds, make_rng(0), 0))

    def test_plain_batches_cover_dataset(self):
        ds = synthetic_dataset(30, d=8, seed=1)
        seen = []
        for images, labels in make_plain_batches(ds, make_rng(2), 12):
            assert images.shape[0] == labels.shape[0]
            seen.extend(labels.tolist())
        assert sorted(np.bincount(seen, minlength=10)) == sorted(
            np.bincount(ds.labels, minlength=10)
        )
