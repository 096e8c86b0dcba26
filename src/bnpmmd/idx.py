"""Reader for the IDX image container (big-endian, unsigned bytes)."""
from __future__ import annotations

import struct

import numpy as np

from .errors import IdxFormatError

IMAGE_MAGIC = 0x00000803


def load_idx_images(path) -> np.ndarray:
    """Read an IDX image file into an (n, rows*cols) float matrix scaled to [0, 1].

    The header is four big-endian 32-bit integers (magic 0x00000803, image
    count, rows, cols) followed by one unsigned byte per pixel.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise IdxFormatError("truncated header", offset=len(raw))
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != IMAGE_MAGIC:
        raise IdxFormatError(f"bad magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}", offset=0)
    expected = 16 + count * rows * cols
    if len(raw) < expected:
        raise IdxFormatError(f"truncated pixel data, expected {expected} bytes", offset=len(raw))
    pixels = np.frombuffer(raw, dtype=np.uint8, count=count * rows * cols, offset=16)
    return pixels.reshape(count, rows * cols).astype(float) / 255.0
