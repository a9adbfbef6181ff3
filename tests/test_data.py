"""Scene generator and augmentation: determinism, geometry bounds, class
mix, and the flip/scale/crop pipeline."""
import hashlib

import numpy as np
import pytest

from segnext.data import (IGNORE_INDEX, NOISE_SIGMA, SegSample, _paint_blob,
                          _paint_strip, augment, class_palette, synth_dataset,
                          target_mix)
from segnext.tensor import Tensor


class ScriptedRng:
    """Stand-in driving augment() with predetermined draws."""

    def __init__(self, flip, factor, crops=(0, 0)):
        self._flip = flip
        self._factor = factor
        self._crops = list(crops)

    def random(self):
        return 0.25 if self._flip else 0.75

    def uniform(self, lo, hi):
        return self._factor

    def integers(self, lo, hi):
        v = self._crops.pop(0)
        assert lo <= v < hi
        return v


class TestSample:
    def test_validates_image_rank_and_label(self):
        img = Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32))
        SegSample(img, np.zeros((8, 8), dtype=np.int64))
        with pytest.raises(ValueError):
            SegSample(Tensor(np.zeros((2, 3, 8, 8), dtype=np.float32)),
                      np.zeros((8, 8), dtype=np.int64))
        with pytest.raises(ValueError):
            SegSample(img, np.zeros((8, 9), dtype=np.int64))
        with pytest.raises(ValueError):
            SegSample(img, np.zeros((8, 8), dtype=np.float32))


class TestPalette:
    def test_colors_distinct_and_in_range(self):
        pal = class_palette(6)
        assert pal.shape == (6, 3)
        assert (pal >= 0).all() and (pal <= 1).all()
        for i in range(6):
            for j in range(i + 1, 6):
                assert np.abs(pal[i] - pal[j]).max() > 0.1


class TestShapes:
    def test_strip_geometry_bounds(self):
        size = 128
        for seed in range(40):
            label = np.zeros((size, size), dtype=np.int64)
            _paint_strip(label, np.random.default_rng(seed), 1)
            rows = np.flatnonzero(label.any(axis=1))
            cols = np.flatnonzero(label.any(axis=0))
            bh = rows[-1] - rows[0] + 1
            bw = cols[-1] - cols[0] + 1
            horizontal = 2 <= bh <= 4 and bw >= size // 2
            vertical = 2 <= bw <= 4 and bh >= size // 2
            # diagonal stamps cover a square bounding box of
            # length + width - 1 per side
            diagonal = bh == bw and bh >= size // 2 + 1
            assert horizontal or vertical or diagonal, (seed, bh, bw)

    def test_blob_is_large(self):
        # blobs may clip at the frame edge, so only half the smallest
        # ellipse is guaranteed in-frame
        size = 128
        lo, hi = size / 4.5, size / 3.05
        for seed in range(20):
            label = np.zeros((size, size), dtype=np.int64)
            _paint_blob(label, np.random.default_rng(seed), 1)
            area = np.count_nonzero(label)
            assert np.pi * lo * lo * 0.5 <= area <= np.pi * hi * hi * 1.05
            rows = np.flatnonzero(label.any(axis=1))
            cols = np.flatnonzero(label.any(axis=0))
            for ext in (rows[-1] - rows[0] + 1, cols[-1] - cols[0] + 1):
                assert lo <= ext <= 2 * hi + 2

    def test_blob_placement_avoids_existing_foreground(self):
        # averaged over scenes, the second blob barely eats the first
        size = 128
        eaten = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            label = np.zeros((size, size), dtype=np.int64)
            _paint_blob(label, rng, 1)
            first = np.count_nonzero(label == 1)
            _paint_blob(label, rng, 2)
            eaten.append(1.0 - np.count_nonzero(label == 1) / first)
        assert np.mean(eaten) < 0.02


class TestDataset:
    def test_same_seed_bitwise_identical(self):
        a = synth_dataset(3, 4, 64, 3)
        b = synth_dataset(3, 4, 64, 3)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image.data, sb.image.data)
            np.testing.assert_array_equal(sa.label, sb.label)

    def test_labels_in_class_range(self):
        for s in synth_dataset(5, 10, 64, 4):
            assert s.label.min() >= 0
            assert s.label.max() <= 3
            assert s.image.data.dtype == np.float32
            assert s.image.data.min() >= 0.0 and s.image.data.max() <= 1.0

    def test_every_class_appears(self):
        for s in synth_dataset(11, 5, 128, 3):
            assert set(np.unique(s.label)) == {0, 1, 2}

    def test_image_colors_track_palette(self):
        pal = class_palette(3)
        s = synth_dataset(2, 1, 128, 3)[0]
        img = s.image.data[0].transpose(1, 2, 0)
        for c in range(3):
            mask = s.label == c
            dev = np.abs(img[mask] - pal[c]).mean()
            assert dev < 3 * NOISE_SIGMA

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            synth_dataset(0, 0, 64, 3)
        with pytest.raises(ValueError):
            synth_dataset(0, 1, 63, 3)
        with pytest.raises(ValueError):
            synth_dataset(0, 1, 64, 1)

    def test_scene_bits_pinned(self):
        # Digests of the painted class ids, widened to int64, and of the
        # image bytes: any change to what the painter draws shows here.
        scenes = synth_dataset(5, 4, 100, 150)
        labels = b"".join(s.label.astype(np.int64).tobytes() for s in scenes)
        images = b"".join(s.image.data.tobytes() for s in scenes)
        assert hashlib.sha256(labels).hexdigest() == (
            "ee9779a38fdf152ea8204ff9c96a0a2715714ba39b49d359cda2933b9bb1e99a")
        assert hashlib.sha256(images).hexdigest() == (
            "15b70fc29862f31b6930b746855c826717344d858c2a868503efd8e1da76a4ab")
        for s in scenes:
            assert s.label.dtype == np.uint8
            assert s.label.nbytes == 100 * 100

    def test_class_ids_stay_below_ignore(self):
        # 255 is IGNORE_INDEX, so a 256th class would be dropped by the
        # loss and by mIoU; uint8 labels cannot hold more ids anyway.
        for k in (256, 257):
            with pytest.raises(ValueError, match="num_classes"):
                synth_dataset(0, 1, 64, k)
            with pytest.raises(ValueError, match="num_classes"):
                target_mix(k, 64)
        label = synth_dataset(0, 1, 64, 255)[0].label
        assert label.max() == 254
        assert not (label == IGNORE_INDEX).any()

    def test_class_mix_within_20pct_of_target(self):
        tm = target_mix(3, 128)
        counts = np.zeros(3, dtype=np.int64)
        for s in synth_dataset(7, 100, 128, 3):
            counts += np.bincount(s.label.ravel(), minlength=3)
        emp = counts / counts.sum()
        np.testing.assert_allclose(emp, tm, rtol=0.20)

    def test_target_mix_contract(self):
        tm = target_mix(4, 128)
        assert tm.shape == (4,)
        assert abs(tm.sum() - 1.0) < 1e-12
        assert (tm > 0).all()
        np.testing.assert_array_equal(tm, target_mix(4, 128))
        with pytest.raises(ValueError):
            target_mix(1, 128)
        with pytest.raises(ValueError):
            target_mix(3, 32)


class TestAugment:
    def sample(self, size=64):
        return synth_dataset(9, 1, size, 3)[0]

    def test_identity_draws_reproduce_input(self):
        s = self.sample()
        out = augment(s, ScriptedRng(flip=False, factor=1.0), crop=64)
        np.testing.assert_array_equal(out.image.data, s.image.data)
        np.testing.assert_array_equal(out.label, s.label)

    def test_double_flip_is_identity(self):
        s = self.sample()
        once = augment(s, ScriptedRng(flip=True, factor=1.0), crop=64)
        twice = augment(once, ScriptedRng(flip=True, factor=1.0), crop=64)
        np.testing.assert_array_equal(twice.image.data, s.image.data)
        np.testing.assert_array_equal(twice.label, s.label)
        assert not np.array_equal(once.label, s.label)

    def test_downscale_pads_with_ignore_and_zeros(self):
        s = self.sample(size=128)
        out = augment(s, ScriptedRng(flip=False, factor=0.5), crop=128)
        assert out.label.shape == (128, 128)
        assert (out.label[64:, :] == IGNORE_INDEX).all()
        assert (out.label[:, 64:] == IGNORE_INDEX).all()
        assert (out.image.data[0, :, 64:, :] == 0).all()
        assert (out.image.data[0, :, :, 64:] == 0).all()
        # kept quadrant: nearest-neighbor downsample, pixel-center mapping
        src = np.floor((np.arange(64) + 0.5) * 2).astype(np.int64)
        np.testing.assert_array_equal(out.label[:64, :64],
                                      s.label[src[:, None], src[None, :]])
        assert set(np.unique(out.label[:64, :64])) <= set(np.unique(s.label))

    def test_upscale_then_crop_keeps_requested_size(self):
        s = self.sample(size=64)
        out = augment(s, ScriptedRng(flip=False, factor=2.0, crops=(17, 33)),
                      crop=48)
        assert out.label.shape == (48, 48)
        assert out.image.shape == (1, 3, 48, 48)
        # upscaling never invents labels
        assert set(np.unique(out.label)) <= set(np.unique(s.label))

    def test_real_rng_deterministic(self):
        s = self.sample()
        a = augment(s, np.random.default_rng(42), crop=32)
        b = augment(s, np.random.default_rng(42), crop=32)
        np.testing.assert_array_equal(a.image.data, b.image.data)
        np.testing.assert_array_equal(a.label, b.label)

    def test_labels_stay_uint8(self):
        s = self.sample(size=128)
        padded = augment(s, ScriptedRng(flip=True, factor=0.5), crop=96)
        assert padded.label.dtype == np.uint8
        assert (padded.label[64:, :] == IGNORE_INDEX).all()
        for seed in range(4):
            out = augment(s, np.random.default_rng(seed), crop=96)
            assert out.label.dtype == np.uint8
            assert out.label.shape == (96, 96)

    def test_crop_must_be_positive(self):
        with pytest.raises(ValueError):
            augment(self.sample(), np.random.default_rng(0), crop=0)
