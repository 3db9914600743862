import gzip
import math
import struct
import tracemalloc

import numpy as np
import pytest
from conftest import traced_peak

from ffnet.data import (
    Dataset,
    LinkedBatch,
    link_inputs,
    load_idx,
    make_linked_batches,
    make_plain_batches,
    one_hot,
    sample_wrong_labels,
    write_idx,
)
from ffnet.errors import ConfigError, DataFormatError, ShapeError
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

    def test_peak_memory_is_near_the_stored_pixels(self, tmp_path, rng):
        """The pixels are kept as the bytes the file holds, so the load peaks
        near those bytes; a float64 copy would be eight times more."""
        images = rng.integers(0, 256, size=(2000, 28, 28)).astype(np.uint8)
        write_idx(tmp_path / "images", images)
        write_idx(tmp_path / "labels", rng.integers(0, 10, size=2000).astype(np.uint8))
        loaded = []
        peak = traced_peak(
            lambda: loaded.append(load_idx(tmp_path / "images", tmp_path / "labels"))
        )
        assert loaded[0].n == 2000
        assert peak < 1.1 * loaded[0].pixels.nbytes

    def test_gzip_load_peaks_near_the_file_and_the_pixels(self, tmp_path, rng):
        """Inflating into one buffer of the trailer's size holds the compressed
        file and the pixels; ``gzip.decompress`` peaks near five pixel copies."""
        images = rng.integers(0, 256, size=(2000, 28, 28)).astype(np.uint8)
        write_idx(tmp_path / "images.gz", images)
        write_idx(tmp_path / "labels.gz", rng.integers(0, 10, size=2000).astype(np.uint8))
        loaded = []
        peak = traced_peak(
            lambda: loaded.append(load_idx(tmp_path / "images.gz", tmp_path / "labels.gz"))
        )
        compressed = (tmp_path / "images.gz").stat().st_size
        assert peak < compressed + 1.1 * loaded[0].pixels.nbytes

    def test_several_gzip_members_are_read_whole(self, tmp_path, idx_pair):
        img_path, lab_path, images, _ = idx_pair
        raw = img_path.read_bytes()
        members = tmp_path / "images.gz"
        members.write_bytes(gzip.compress(raw[:1000]) + gzip.compress(raw[1000:]))
        ds = load_idx(members, lab_path)
        assert ds.pixels.tobytes() == images.tobytes()

    def test_rows_are_the_bytes_over_255_bitwise(self, idx_pair):
        img_path, lab_path, images, _ = idx_pair
        ds = load_idx(img_path, lab_path)
        flat = images.reshape(50, -1)
        idx = np.array([7, 0, 49, 7, 3])
        assert ds.rows(idx).tobytes() == (flat[idx].astype(np.float64) / 255.0).tobytes()
        assert ds.images.tobytes() == (flat.astype(np.float64) / 255.0).tobytes()

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
        for header, part in ((struct.pack(">I", 0x00000803) + b"\x00\x00", "dimension header"),
                             (b"\x00\x00", "before magic")):
            stub.write_bytes(header)
            with pytest.raises(DataFormatError) as error:
                load_idx(stub, stub)
            assert str(error.value) == f"images file {stub}: truncated {part}"

    @pytest.mark.parametrize(
        "dims",
        [(4194304, 2097152, 2097152), (4294967295, 4294967295, 1)],
        ids=["wraps_to_zero", "wraps_negative"],
    )
    def test_header_product_past_int64_is_a_format_error(self, tmp_path, dims):
        """The payload size is the exact product of the dims, however large."""
        stub = tmp_path / "huge-idx3-ubyte"
        stub.write_bytes(struct.pack(">4I", 0x00000803, *dims))
        with pytest.raises(DataFormatError) as error:
            load_idx(stub, stub)
        assert str(error.value) == (
            f"images file {stub}: expected {math.prod(dims)} data bytes, found 0"
        )

    @pytest.mark.parametrize(
        "values",
        [[[0.4, 0.6, 1.0]], [300, -1], [np.nan, 1.0], [np.inf]],
        ids=["fractions", "out_of_range", "nan", "inf"],
    )
    def test_values_a_byte_cannot_hold_are_rejected(self, tmp_path, values):
        path = tmp_path / "bad-idx1-ubyte"
        with pytest.raises(DataFormatError, match="whole numbers in 0..255") as error:
            write_idx(path, np.array(values))
        assert "\n" not in str(error.value)
        assert not path.exists()

    def test_whole_values_of_any_dtype_are_stored_as_bytes(self, tmp_path):
        values = np.array([[0, 7, 255]])
        write_idx(tmp_path / "uint8", values.astype(np.uint8))
        for dtype in (np.int64, np.float64):
            write_idx(tmp_path / "other", values.astype(dtype))
            assert (tmp_path / "other").read_bytes() == (tmp_path / "uint8").read_bytes()

    def test_count_mismatch_between_files(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(5, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, size=4).astype(np.uint8)
        write_idx(tmp_path / "im", images)
        write_idx(tmp_path / "la", labels)
        with pytest.raises(DataFormatError, match="5 images vs 4 labels"):
            load_idx(tmp_path / "im", tmp_path / "la")


def _write_idx_split(tmp_path, rng, n):
    write_idx(tmp_path / "images.gz", rng.integers(0, 256, size=(n, 28, 28)).astype(np.uint8))
    write_idx(tmp_path / "labels.gz", rng.integers(0, 10, size=n).astype(np.uint8))
    return load_idx(tmp_path / "images.gz", tmp_path / "labels.gz")


class TestPixelStorage:
    @pytest.mark.parametrize("load", [_write_idx_split])
    def test_loaded_split_holds_one_byte_per_pixel(self, tmp_path, rng, load):
        """What stays allocated after a load is the n x d pixel bytes and the
        labels, not an eight-byte float per pixel."""
        tracemalloc.start()
        try:
            ds = load(tmp_path, rng, 300)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert ds.pixels.dtype == np.uint8
        assert ds.pixels.nbytes == ds.n * ds.d
        assert held < ds.pixels.nbytes + ds.labels.nbytes + 64_000

    def test_uint8_pixels_read_as_byte_over_255(self):
        pixels = np.array([[0, 51, 255], [255, 102, 0]], dtype=np.uint8)
        ds = Dataset(pixels, [3, 4], "synthetic", "train")
        assert ds.pixels is pixels
        assert ds.images.dtype == np.float64
        assert ds.images.tobytes() == (pixels.astype(np.float64) / 255.0).tobytes()
        assert ds.subset(1).pixels.dtype == np.uint8

    def test_float_pixels_are_returned_exactly(self, rng):
        images = rng.uniform(0.0, 1.0, size=(6, 5))
        ds = Dataset(images, np.zeros(6, dtype=int), "synthetic", "train")
        assert ds.images.tobytes() == images.tobytes()
        assert ds.rows([4, 1]).tobytes() == images[[4, 1]].tobytes()

    def test_images_is_a_fresh_copy(self, rng):
        ds = Dataset(rng.uniform(size=(3, 4)), np.zeros(3, dtype=int), "synthetic", "train")
        ds.images[0, 0] = 7.0
        assert ds.images[0, 0] <= 1.0


class TestDatasetValidation:
    def test_known_name_enforces_dimension(self):
        with pytest.raises(DataFormatError, match="784"):
            Dataset(np.zeros((3, 100)), np.zeros(3, dtype=int), "mnist", "train")

    def test_pixel_range_enforced(self):
        with pytest.raises(DataFormatError, match=r"\[0, 1\]") as out_of_range:
            Dataset(np.full((2, 4), 2.0), np.zeros(2, dtype=int), "synthetic", "train")
        images = np.full((2, 4), 0.5)
        images[1, 2] = np.nan
        with pytest.raises(DataFormatError, match=r"\[0, 1\]") as nan:
            Dataset(images, np.zeros(2, dtype=int), "synthetic", "train")
        for error in (out_of_range, nan):
            assert "\n" not in str(error.value)

    def test_label_range_enforced(self):
        with pytest.raises(DataFormatError, match="labels"):
            Dataset(np.zeros((2, 4)), np.array([0, 11]), "synthetic", "train")

    @pytest.mark.parametrize(
        "labels", [[1.7, 2.2], [1.0, np.nan]], ids=["fractions", "nan"]
    )
    def test_labels_that_are_not_whole_numbers_are_rejected(self, labels):
        with pytest.raises(DataFormatError, match="labels must be whole numbers"):
            Dataset(np.zeros((2, 3)), labels, "synthetic", "train")

    def test_whole_float_labels_are_taken_as_int64(self):
        ds = Dataset(np.zeros((2, 3)), [1.0, 2.0], "synthetic", "train")
        assert ds.labels.dtype == np.int64
        np.testing.assert_array_equal(ds.labels, [1, 2])

    def test_pixels_must_be_2d(self):
        with pytest.raises(DataFormatError, match=r"images must be 2-D, got shape \(2, 3, 4\)"):
            Dataset(np.zeros((2, 3, 4)), np.zeros(2, dtype=int), "synthetic", "train")

    def test_label_count_must_match_image_count(self):
        with pytest.raises(DataFormatError, match="does not match 2 images"):
            Dataset(np.zeros((2, 4)), np.zeros(3, dtype=int), "synthetic", "train")


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
            # Every row's true label is its sample's, found by its pixels.
            ids = [np.flatnonzero((ds.images == x).all(axis=1))[0] for x in batch.images]
            true_labels = np.tile(ds.labels[ids], batch.copies)
            np.testing.assert_array_equal(
                batch.linked_labels[pos], true_labels[pos]
            )
            assert np.all(batch.linked_labels[~pos] != true_labels[~pos])
            onehot_blocks = batch.linked_inputs()[:, 16:]
            np.testing.assert_array_equal(onehot_blocks.sum(axis=1), 1.0)

    def test_same_seed_gives_identical_stream(self):
        ds = synthetic_dataset(40, d=8, seed=3)
        stream_a = list(make_linked_batches(ds, make_rng(7), 16))
        stream_b = list(make_linked_batches(ds, make_rng(7), 16))
        for a, b in zip(stream_a, stream_b):
            np.testing.assert_array_equal(a.linked_inputs(), b.linked_inputs())
            np.testing.assert_array_equal(a.linked_labels, b.linked_labels)

    @pytest.mark.parametrize(
        ("batch_size", "n_batches"), [(10, 3), (23, 1)], ids=["ragged", "whole"]
    )
    def test_linked_form_is_the_vstacked_linked_matrix(self, batch_size, n_batches):
        """The batch stream draws what it always drew, and ``linked_inputs``
        rebuilds the positives' linked rows stacked on the negatives'."""
        ds = synthetic_dataset(23, d=8, seed=3)
        rng, oracle_rng = make_rng(11), make_rng(11)
        for _ in range(2):
            batches = list(make_linked_batches(ds, rng, batch_size))
            order = oracle_rng.permutation(ds.n)
            assert len(batches) == n_batches
            for start, batch in zip(range(0, ds.n, batch_size), batches):
                idx = order[start : start + batch_size]
                images, true = ds.images[idx], ds.labels[idx]
                wrong = sample_wrong_labels(true, oracle_rng)
                want = np.vstack([link_inputs(images, true), link_inputs(images, wrong)])
                np.testing.assert_array_equal(batch.images, images)
                assert batch.copies == 2
                assert batch.linked_inputs().tobytes() == want.tobytes()
                np.testing.assert_array_equal(
                    batch.linked_labels, np.concatenate([true, wrong])
                )

    def test_epochs_reshuffle_and_resample(self):
        ds = synthetic_dataset(40, d=8, seed=3)
        rng = make_rng(7)
        first = list(make_linked_batches(ds, rng, 40))[0]
        second = list(make_linked_batches(ds, rng, 40))[0]
        # A row's true label is its sample's positive label.
        first_true, second_true = (
            np.tile(b.linked_labels[: b.images.shape[0]], b.copies) for b in (first, second)
        )
        assert not np.array_equal(first_true, second_true) or not np.array_equal(
            first.linked_labels, second.linked_labels
        )

    def test_bad_batch_size(self):
        ds = synthetic_dataset(10, d=8, seed=0)
        with pytest.raises(ConfigError):
            list(make_linked_batches(ds, make_rng(0), 0))

    def test_copies_rejects_rows_that_are_not_a_multiple_of_the_samples(self):
        """``copies`` is the forward pass's rows-per-sample rule, not a floor division."""
        batch = LinkedBatch(np.zeros((2, 8)), np.ones(5), np.zeros(5, dtype=np.int64))
        with pytest.raises(ShapeError, match=r"^5 linked rows are not a multiple of 2 samples$"):
            batch.copies

    def test_plain_batches_cover_dataset(self):
        ds = synthetic_dataset(30, d=8, seed=1)
        seen = []
        for images, labels in make_plain_batches(ds, make_rng(2), 12):
            assert images.shape[0] == labels.shape[0]
            seen.extend(labels.tolist())
        assert sorted(np.bincount(seen, minlength=10)) == sorted(
            np.bincount(ds.labels, minlength=10)
        )
