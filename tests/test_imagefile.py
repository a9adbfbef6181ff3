"""Binary PPM/PGM image I/O: round-trips, header handling, and malformed
input rejection."""
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segnext.data import synth_dataset
from segnext.imagefile import (MAX_PIXELS, ImageFormatError, read_pgm, read_ppm,
                               write_pgm, write_ppm)
from segnext.tensor import Tensor


class TestPpm:
    def test_uint8_round_trip_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        back = read_ppm(path)
        assert back.shape == (1, 3, 5, 7)
        assert back.data.dtype == np.float32
        restored = np.rint(back.data[0] * 255).astype(np.uint8).transpose(1, 2, 0)
        np.testing.assert_array_equal(restored, img)

    def test_float_input_quantized_to_8_bits(self, tmp_path):
        img = np.zeros((3, 4, 4), dtype=np.float32)
        img[0] = 0.5
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        back = read_ppm(path).data[0]
        assert abs(back[0, 0, 0] - 128 / 255) < 1e-7
        assert back[1].max() == 0.0

    def test_tensor_write_and_double_round_trip_stable(self, tmp_path):
        s = synth_dataset(3, 1, 64, 3)[0]
        p1 = tmp_path / "a.ppm"
        p2 = tmp_path / "b.ppm"
        write_ppm(p1, s.image)
        write_ppm(p2, read_ppm(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_values_clip_to_unit_range(self, tmp_path):
        img = np.array([[[1.7]], [[-0.3]], [[0.2]]], dtype=np.float32)
        path = tmp_path / "x.ppm"
        write_ppm(path, img)
        back = read_ppm(path).data[0]
        assert back[0, 0, 0] == 1.0
        assert back[1, 0, 0] == 0.0

    def test_header_format(self, tmp_path):
        path = tmp_path / "x.ppm"
        write_ppm(path, np.zeros((2, 3, 3), dtype=np.uint8))
        assert path.read_bytes().startswith(b"P6\n")


class TestPgm:
    def test_label_round_trip_with_ignore(self, tmp_path):
        label = np.array([[0, 1], [2, 255]], dtype=np.int64)
        path = tmp_path / "x.pgm"
        write_pgm(path, label)
        back = read_pgm(path)
        assert back.dtype == np.int64
        np.testing.assert_array_equal(back, label)

    def test_synthetic_label_statistics_survive(self, tmp_path):
        s = synth_dataset(8, 1, 64, 3)[0]
        path = tmp_path / "x.pgm"
        write_pgm(path, s.label)
        back = read_pgm(path)
        np.testing.assert_array_equal(
            np.bincount(back.ravel(), minlength=3),
            np.bincount(s.label.ravel(), minlength=3))

    def test_rejects_out_of_range_values(self, tmp_path):
        with pytest.raises(ImageFormatError):
            write_pgm(tmp_path / "x.pgm", np.array([[300]]))
        with pytest.raises(ImageFormatError):
            write_pgm(tmp_path / "x.pgm", np.array([[-1]]))


def _read_rgb(path):
    """``read_ppm``'s image as HxWx3 uint8."""
    return np.rint(read_ppm(path).data[0] * 255).astype(np.uint8).transpose(1, 2, 0)


class TestWriteSize:
    """The writers refuse the sizes the readers refuse, before they make a
    file or read the pixels."""

    def test_small_maps_raise_and_leave_no_file_or_read_back(self, tmp_path):
        rng = np.random.default_rng(0)
        for h in range(4):
            for w in range(4):
                img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
                label = img[..., 0].astype(np.int64)
                for name, write, read, arr, want in (
                        ("pgm", write_pgm, read_pgm, label, label),
                        ("ppm", write_ppm, _read_rgb, img, img),
                        ("ppm-float", write_ppm, _read_rgb,
                         img.transpose(2, 0, 1) / np.float32(255), img)):
                    d = tmp_path / f"{name}-{h}x{w}"
                    d.mkdir()
                    try:
                        write(d / "x", arr)
                    except ImageFormatError:
                        assert h * w == 0 and list(d.iterdir()) == [], (name, h, w)
                        continue
                    np.testing.assert_array_equal(read(d / "x"), want)

    def test_over_the_pixel_limit_raises_before_allocating(self, tmp_path):
        # Broadcast views of one value: the check must come before any copy.
        w = 8192
        h = MAX_PIXELS // w + 1
        tracemalloc.start()
        try:
            for write, arr in (
                    (write_pgm, np.broadcast_to(np.uint8(0), (h, w))),
                    (write_pgm, np.broadcast_to(np.int64(0), (h, w))),
                    (write_ppm, np.broadcast_to(np.uint8(0), (h, w, 3))),
                    (write_ppm, np.broadcast_to(np.float32(0.5), (3, h, w)))):
                with pytest.raises(ImageFormatError, match="pixel limit"):
                    write(tmp_path / "x", arr)
                assert list(tmp_path.iterdir()) == []
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestAtomicWrite:
    def test_failed_replace_keeps_old_file_and_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "x.pgm"
        write_pgm(path, np.array([[1, 2]]))
        before = path.read_bytes()

        def fail_replace(src, dst):
            raise OSError("simulated rename failure")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError, match="simulated"):
            write_pgm(path, np.array([[3, 4]]))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["x.pgm"]

    def test_new_file_gets_the_mode_open_would_give(self, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        path = tmp_path / "x.pgm"
        write_pgm(path, np.array([[1]]))
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask


class TestMalformed:
    def write(self, tmp_path, payload):
        path = tmp_path / "bad.img"
        path.write_bytes(payload)
        return path

    def test_wrong_magic(self, tmp_path):
        with pytest.raises(ImageFormatError, match="P6"):
            read_ppm(self.write(tmp_path, b"P5\n2 2\n255\n" + b"\x00" * 4))
        with pytest.raises(ImageFormatError, match="P5"):
            read_pgm(self.write(tmp_path, b"P6\n1 1\n255\n" + b"\x00" * 3))

    def test_bad_dimensions(self, tmp_path):
        with pytest.raises(ImageFormatError):
            read_ppm(self.write(tmp_path, b"P6\n0 2\n255\n"))
        with pytest.raises(ImageFormatError):
            read_ppm(self.write(tmp_path, b"P6\n-3 2\n255\n"))

    def test_wrong_maxval(self, tmp_path):
        with pytest.raises(ImageFormatError, match="255"):
            read_ppm(self.write(tmp_path, b"P6\n2 2\n65535\n" + b"\x00" * 24))

    def test_short_payload(self, tmp_path):
        with pytest.raises(ImageFormatError):
            read_ppm(self.write(tmp_path, b"P6\n4 4\n255\n" + b"\x00" * 10))

    def test_header_comments_allowed(self, tmp_path):
        payload = b"P5\n# made by hand\n2 1\n255\n\x07\xff"
        back = read_pgm(self.write(tmp_path, payload))
        np.testing.assert_array_equal(back, [[7, 255]])

    def test_oversize_dimensions_rejected(self, tmp_path):
        with pytest.raises(ImageFormatError, match="pixel limit"):
            read_ppm(self.write(tmp_path, b"P6\n100000 100000\n255\n"))

    def test_infer_pgm_output_compatible_with_read(self, tmp_path):
        # label maps written by the tool are readable third-party P5 files
        label = np.arange(6, dtype=np.int64).reshape(2, 3)
        path = tmp_path / "x.pgm"
        write_pgm(path, label)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n")
        assert raw.endswith(bytes(range(6)))


def _valid(magic: bytes, channels: int) -> bytes:
    """A small well-formed file, with a comment line in its header."""
    return magic + b"\n# c\n3 2\n255\n" + bytes(range(40, 40 + 6 * channels))


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """``valid`` with a few bytes replaced, inserted or deleted (mostly in
    the header, where the parser branches), then possibly truncated."""
    buf = bytearray(valid)
    for _ in range(draw(st.integers(0, 4))):
        hi = draw(st.sampled_from([16, len(buf)]))
        pos = draw(st.integers(0, max(0, min(hi, len(buf)) - 1)))
        byte = draw(st.sampled_from([0, 9, 10, 11, 13, 32, 35, 43, 45, 48, 49, 53,
                                     54, 57, 80, 95, 255]) | st.integers(0, 255))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert" or not buf:
            buf.insert(pos, byte)
        elif op == "replace":
            buf[pos] = byte
        else:
            del buf[pos]
    return bytes(buf[:draw(st.integers(0, len(buf)))])


class TestFuzzedParsers:
    """Mutated and truncated files either parse to a well-formed image or
    raise ``ImageFormatError``; nothing else escapes."""

    @staticmethod
    def parse(tmp_path_factory, reader, payload):
        path = tmp_path_factory.getbasetemp() / "fuzzed.img"
        path.write_bytes(payload)
        try:
            return reader(path)
        except ImageFormatError:
            return None

    @settings(max_examples=300, deadline=None)
    @given(payload=mutated(_valid(b"P6", 3)))
    def test_read_ppm_raises_only_its_error(self, tmp_path_factory, payload):
        img = self.parse(tmp_path_factory, read_ppm, payload)
        if img is not None:
            assert img.shape[:2] == (1, 3) and img.dtype == np.float32
            assert 0.0 <= img.data.min() and img.data.max() <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(payload=mutated(_valid(b"P5", 1)))
    def test_read_pgm_raises_only_its_error(self, tmp_path_factory, payload):
        labels = self.parse(tmp_path_factory, read_pgm, payload)
        if labels is not None:
            assert labels.ndim == 2 and labels.dtype == np.int64
            assert 0 <= labels.min() and labels.max() <= 255

    @pytest.mark.parametrize("reader,magic,channels", [(read_ppm, b"P6", 3),
                                                       (read_pgm, b"P5", 1)])
    def test_every_truncation_raises_its_error(self, tmp_path, reader, magic, channels):
        valid = _valid(magic, channels)
        path = tmp_path / "cut.img"
        for end in range(len(valid)):
            path.write_bytes(valid[:end])
            with pytest.raises(ImageFormatError):
                reader(path)
