"""Dataset loaders, transforms, and synthetic generators."""

import numpy as np
import pytest

from circuq import Dataset, corrupt, load_csv, load_idx, rotate, save_csv, synth_blobs
from circuq.datasets import IdxFormatError, write_idx
from circuq.errors import ShapeError


@pytest.fixture
def tiny_idx(tmp_path):
    rng = np.random.default_rng(0)
    features = rng.uniform(0, 1, size=(2, 9))
    images = tmp_path / "imgs.idx"
    labels = tmp_path / "labels.idx"
    write_idx(images, features, width=3, height=3, labels_path=labels, labels=[1, 0])
    return images, labels, features


class TestIdx:
    def test_round_trip(self, tiny_idx):
        images, labels, features = tiny_idx
        ds = load_idx(images, labels)
        assert ds.num_rows == 2 and ds.num_features == 9
        assert np.all((0 <= ds.features) & (ds.features <= 1))
        np.testing.assert_allclose(ds.features, features, atol=1 / 255)
        np.testing.assert_array_equal(ds.labels, [1, 0])

    def test_bad_magic(self, tiny_idx, tmp_path):
        images, _, _ = tiny_idx
        data = bytearray(images.read_bytes())
        data[3] = 0x02  # magic 0x00000802
        bad = tmp_path / "bad.idx"
        bad.write_bytes(bytes(data))
        with pytest.raises(IdxFormatError):
            load_idx(bad)

    def test_truncated(self, tiny_idx, tmp_path):
        images, _, _ = tiny_idx
        cut = tmp_path / "cut.idx"
        cut.write_bytes(images.read_bytes()[:-4])
        with pytest.raises(IdxFormatError):
            load_idx(cut)

    def test_label_count_mismatch(self, tiny_idx, tmp_path):
        import struct

        images, _, _ = tiny_idx
        lab = tmp_path / "short.idx"
        lab.write_bytes(struct.pack(">II", 0x00000801, 1) + bytes([1]))
        with pytest.raises(IdxFormatError):
            load_idx(images, lab)


class TestRotate:
    def test_zero_degrees_identity_bit_exact(self):
        rng = np.random.default_rng(1)
        ds = Dataset(rng.uniform(0, 1, size=(4, 16)))
        out = rotate(ds, 0.0, 4, 4)
        assert np.array_equal(out.features, ds.features)

    def test_ninety_degrees_matches_rot90(self):
        """The closed-form oracle: a 90-degree turn permutes pixels exactly."""
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, size=(3, 3))
        ds = Dataset(img.reshape(1, -1))
        out = rotate(ds, 90.0, 3, 3).features.reshape(3, 3)
        np.testing.assert_allclose(out, np.rot90(img), atol=1e-9)

    def test_interpolation_stays_in_range(self):
        rng = np.random.default_rng(3)
        ds = Dataset(rng.uniform(0, 1, size=(5, 64)))
        out = rotate(ds, 45.0, 8, 8)
        assert np.all(out.features >= 0.0) and np.all(out.features <= 1.0)

    def test_rotate_back_recovers_interior(self):
        # spatially smooth images: interpolation loss, not aliasing, dominates
        rng = np.random.default_rng(4)
        side = 8
        raw = rng.uniform(0.2, 0.8, size=(3, side, side))
        for _ in range(2):
            padded = np.pad(raw, ((0, 0), (1, 1), (1, 1)), mode="edge")
            raw = sum(padded[:, i:i + side, j:j + side] for i in range(3) for j in range(3)) / 9.0
        ds = Dataset(raw.reshape(3, -1))
        back = rotate(rotate(ds, 30.0, side, side), -30.0, side, side)
        imgs = ds.features.reshape(-1, side, side)
        rec = back.features.reshape(-1, side, side)
        interior = np.s_[:, 2:-2, 2:-2]
        mae = np.abs(imgs[interior] - rec[interior]).mean()
        assert mae < 0.05

    def test_shape_mismatch(self):
        ds = Dataset(np.zeros((1, 10)))
        with pytest.raises(ShapeError):
            rotate(ds, 10.0, 3, 3)


class TestCorrupt:
    def test_brightness_severity_five_on_zeros(self):
        ds = Dataset(np.zeros((2, 4)))
        out = corrupt(ds, "brightness", 5)
        np.testing.assert_array_equal(out.features, np.full((2, 4), 0.5))

    def test_severity_monotonicity(self):
        rng = np.random.default_rng(5)
        ds = Dataset(rng.uniform(0.3, 0.7, size=(10, 16)))
        for kind in ("gaussian_noise", "brightness", "contrast"):
            deltas = []
            for severity in range(1, 6):
                out = corrupt(ds, kind, severity, seed=7)
                deltas.append(np.abs(out.features - ds.features).mean())
            assert all(b > a for a, b in zip(deltas, deltas[1:]))

    def test_noise_deterministic_under_seed(self):
        ds = Dataset(np.full((3, 5), 0.5))
        a = corrupt(ds, "gaussian_noise", 3, seed=42)
        b = corrupt(ds, "gaussian_noise", 3, seed=42)
        assert np.array_equal(a.features, b.features)
        c = corrupt(ds, "gaussian_noise", 3, seed=43)
        assert not np.array_equal(a.features, c.features)

    def test_output_clamped(self):
        ds = Dataset(np.ones((2, 4)))
        out = corrupt(ds, "brightness", 5)
        assert np.all(out.features <= 1.0)

    def test_unknown_kind_and_severity(self):
        ds = Dataset(np.zeros((1, 4)))
        with pytest.raises(ValueError):
            corrupt(ds, "fog", 1)
        with pytest.raises(ValueError):
            corrupt(ds, "brightness", 6)


class TestSynthBlobs:
    def test_separation_controls_accuracy(self):
        """With means >= 10 apart and unit variance the Bayes error is below
        Phi(-5), so nearest-mean classification is essentially perfect."""
        ds = synth_blobs(2, 6, 200, separation=10.0, seed=0)
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(2)])
        dists = np.linalg.norm(ds.features[:, None, :] - means[None], axis=2)
        pred = np.argmin(dists, axis=1)
        assert (pred == ds.labels).mean() > 0.999

    def test_zero_separation_identical_distributions(self):
        ds = synth_blobs(3, 4, 500, separation=0.0, seed=1)
        for c in range(3):
            np.testing.assert_allclose(
                ds.features[ds.labels == c].mean(axis=0), 0.0, atol=0.2
            )

    def test_deterministic(self):
        a = synth_blobs(3, 5, 10, 4.0, seed=9)
        b = synth_blobs(3, 5, 10, 4.0, seed=9)
        assert np.array_equal(a.features, b.features)

    def test_pairwise_separation_holds(self):
        ds = synth_blobs(6, 8, 1, separation=5.0, seed=3)
        means = np.stack([ds.features[ds.labels == c][0] for c in range(6)])
        # crude check against the generating means via one sample per class is
        # noisy; regenerate with many rows instead
        ds = synth_blobs(6, 8, 300, separation=5.0, seed=3)
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(6)])
        d = np.linalg.norm(means[:, None] - means[None], axis=2)
        np.fill_diagonal(d, np.inf)
        assert d.min() > 5.0 - 0.5


class TestCsvAndStandardize:
    def test_csv_round_trip(self, tmp_path):
        ds = synth_blobs(2, 3, 5, 2.0, seed=0)
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        np.testing.assert_allclose(loaded.features, ds.features, rtol=1e-15)
        np.testing.assert_array_equal(loaded.labels, ds.labels)

    def test_csv_without_labels(self, tmp_path):
        ds = Dataset(np.arange(6.0).reshape(2, 3))
        path = tmp_path / "x.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert loaded.labels is None
        np.testing.assert_allclose(loaded.features, ds.features)

    @pytest.mark.parametrize("label", ["1.5", "nan", "inf"])
    def test_a_label_that_is_not_a_whole_number_names_its_line(self, tmp_path, label):
        """A fractional label is not truncated to a class index."""
        path = tmp_path / "fractional.csv"
        path.write_text(f"x0,label\n0.5,1\n0.25,2.0\n\n1.0,{label}\n")
        with pytest.raises(ShapeError, match=f"line 5: label '{label}' is not a whole number"):
            load_csv(path)
        path.write_text("x0,label\n0.5,1\n0.25,2.0\n")
        np.testing.assert_array_equal(load_csv(path).labels, [1, 2])

    @pytest.mark.parametrize("count", [7, 12])
    def test_label_count_must_match_rows(self, count):
        with pytest.raises(ShapeError, match=f"{count} labels for 10 rows"):
            Dataset(np.zeros((10, 3)), np.zeros(count, dtype=np.int64))
        assert Dataset(np.zeros((10, 3)), np.zeros(10, dtype=np.int64)).num_rows == 10

    @pytest.mark.parametrize("labels", [None, np.empty(0, dtype=np.int64)])
    def test_csv_of_zero_rows_round_trips(self, tmp_path, labels):
        path = tmp_path / "empty.csv"
        save_csv(Dataset(np.empty((0, 3)), labels), path)
        loaded = load_csv(path)
        assert loaded.features.shape == (0, 3)
        assert (loaded.labels is None) == (labels is None)

    def test_no_nans_emitted(self):
        ds = synth_blobs(2, 3, 10, 1.0, seed=0)
        assert not np.any(np.isnan(ds.features))
