import struct

import numpy as np
import pytest

from bnpmmd.errors import IdxFormatError
from bnpmmd.idx import IMAGE_MAGIC, load_idx_images


def write_idx_images(path, images: np.ndarray, rows: int, cols: int) -> None:
    """Write an (n, rows, cols) or (n, rows*cols) uint8 array as an IDX file."""
    flat = np.asarray(images, dtype=np.uint8).reshape(len(images), rows * cols)
    path.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, len(flat), rows, cols) + flat.tobytes())


def fixture_bytes():
    # two 2x2 images with known pixel bytes
    header = struct.pack(">IIII", 0x00000803, 2, 2, 2)
    pixels = bytes([0, 51, 102, 255, 10, 20, 30, 40])
    return header + pixels


def test_handcrafted_fixture(tmp_path):
    path = tmp_path / "two.idx"
    path.write_bytes(fixture_bytes())
    mat = load_idx_images(path)
    expected = np.array([[0, 51, 102, 255], [10, 20, 30, 40]]) / 255.0
    np.testing.assert_array_equal(mat, expected)


def test_all_zero_pixels(tmp_path):
    path = tmp_path / "zeros.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000803, 3, 2, 2) + bytes(12))
    mat = load_idx_images(path)
    assert mat.shape == (3, 4)
    assert np.all(mat == 0.0)


def test_write_read_roundtrip(tmp_path):
    path = tmp_path / "round.idx"
    images = np.arange(24, dtype=np.uint8).reshape(2, 3, 4)
    write_idx_images(path, images, 3, 4)
    raw = path.read_bytes()
    assert raw[:16] == struct.pack(">IIII", 0x00000803, 2, 3, 4)
    mat = load_idx_images(path)
    np.testing.assert_array_equal(mat, images.reshape(2, 12) / 255.0)
    # write the recovered bytes back out: identical file
    path2 = tmp_path / "round2.idx"
    write_idx_images(path2, (mat * 255.0).round().astype(np.uint8), 3, 4)
    assert path2.read_bytes() == raw


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(struct.pack(">IIII", 0x00000801, 2, 2, 2) + bytes(8))
    with pytest.raises(IdxFormatError) as exc:
        load_idx_images(path)
    assert exc.value.offset == 0


def test_truncated_pixels(tmp_path):
    path = tmp_path / "short.idx"
    full = fixture_bytes()
    path.write_bytes(full[:-3])
    with pytest.raises(IdxFormatError) as exc:
        load_idx_images(path)
    assert exc.value.offset == len(full) - 3


def test_truncated_header(tmp_path):
    path = tmp_path / "tiny.idx"
    path.write_bytes(b"\x00\x00")
    with pytest.raises(IdxFormatError) as exc:
        load_idx_images(path)
    assert exc.value.offset == 2
