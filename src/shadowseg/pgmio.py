"""Binary PGM (P5) reading and writing, plus the label-map encoding.

Only 8-bit binary PGM is supported (maxval up to 255), and sequence
frames must use maxval 255. Label maps are stored as ordinary PGM files
with background = 0, shadow = 128 and foreground = 255.
"""

from __future__ import annotations

import numpy as np

from shadowseg.energy import BACKGROUND, FOREGROUND, SHADOW

_WHITESPACE = b" \t\n\r\x0b\x0c"

LABEL_TO_BYTE = {BACKGROUND: 0, SHADOW: 128, FOREGROUND: 255}
BYTE_TO_LABEL = {0: BACKGROUND, 128: SHADOW, 255: FOREGROUND}


class PgmError(Exception):
    """Malformed, unsupported, or truncated PGM data."""


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token starting at `pos`, skipping whitespace and
    # comments. Returns (token, position one past its end)."""
    n = len(data)
    while pos < n:
        ch = data[pos:pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
        elif ch in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise PgmError("unexpected end of header")
    start = pos
    while pos < n and data[pos:pos + 1] not in _WHITESPACE and data[pos:pos + 1] != b"#":
        pos += 1
    return data[start:pos], pos


def _int_token(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    try:
        return int(token), pos
    except ValueError:
        raise PgmError(f"bad {what} field: {token!r}") from None


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM file. Returns (pixels as (H, W) uint8, maxval)."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, pos = _next_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"unsupported format {magic!r}, expected binary P5")
    width, pos = _int_token(data, pos, "width")
    height, pos = _int_token(data, pos, "height")
    maxval, pos = _int_token(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PgmError(f"bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise PgmError(f"unsupported maxval {maxval}")
    if pos >= len(data) or data[pos:pos + 1] not in _WHITESPACE:
        raise PgmError("missing whitespace after maxval")
    pos += 1
    raster = data[pos:pos + width * height]
    if len(raster) < width * height:
        raise PgmError(f"truncated payload: {len(raster)} of {width * height} bytes")
    pixels = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    return pixels.copy(), maxval


def write_pgm(path, pixels, maxval: int = 255) -> None:
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {pixels.shape}")
    if not 1 <= maxval <= 255:
        raise ValueError(f"unsupported maxval {maxval}")
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError("pixel values outside [0, maxval]")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n{maxval}\n".encode("ascii"))
        fh.write(pixels.astype(np.uint8).tobytes())


def read_frame(path) -> np.ndarray:
    """Read one sequence frame, which must use the full 0..255 scale."""
    pixels, maxval = read_pgm(path)
    if maxval != 255:
        raise PgmError(f"{path}: frame maxval is {maxval}, expected 255")
    return pixels


def write_labels(labels, path) -> None:
    """Store a fully committed label map as PGM (0 / 128 / 255)."""
    labels = np.asarray(labels)
    out = np.zeros(labels.shape, dtype=np.uint8)
    known = np.zeros(labels.shape, dtype=bool)
    for label, byte in LABEL_TO_BYTE.items():
        mask = labels == label
        out[mask] = byte
        known |= mask
    if not known.all():
        bad = np.unique(labels[~known])
        raise ValueError(f"uncommitted or unknown labels present: {bad.tolist()}")
    write_pgm(path, out)


def read_labels(path) -> np.ndarray:
    """Inverse of write_labels."""
    pixels, _ = read_pgm(path)
    labels = np.zeros(pixels.shape, dtype=np.int64)
    known = np.zeros(pixels.shape, dtype=bool)
    for byte, label in BYTE_TO_LABEL.items():
        mask = pixels == byte
        labels[mask] = label
        known |= mask
    if not known.all():
        bad = np.unique(pixels[~known])
        raise PgmError(f"not a label map, unexpected byte values: {bad.tolist()}")
    return labels
