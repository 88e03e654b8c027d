"""Binary PGM (P5) reading and writing, plus the label-map encoding.

Only 8-bit binary PGM is read (maxval up to 255, no sample above it),
and only maxval 255, which sequence frames must use, is written. Label
maps are stored as ordinary PGM files with background = 0, shadow = 128
and foreground = 255.
"""

from __future__ import annotations

import numpy as np

from shadowseg.energy import BACKGROUND, FOREGROUND, LABELS

_WHITESPACE = b" \t\n\r\x0b\x0c"

# the byte of each label 0..3 (0 is never written), and the label of each
# byte, 0 for a byte that encodes no label
_BYTE_OF_LABEL = np.array([0, 0, 128, 255], dtype=np.uint8)
_LABEL_OF_BYTE = np.zeros(256, dtype=np.uint8)
_LABEL_OF_BYTE[_BYTE_OF_LABEL[list(LABELS)]] = LABELS


class PgmError(Exception):
    """Malformed, unsupported, or truncated PGM data."""


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next header token starting at `pos`, skipping whitespace and
    comments. Returns (token, position one past its end)."""
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
    # ASCII digits only: int() would also take a sign or underscores
    if token.isdigit():
        try:
            return int(token), pos
        except ValueError:      # more digits than int() converts
            pass
    raise PgmError(f"bad {what} field: {token!r}")


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
    # no byte is above maxval 255, so frames pay for no check
    if maxval < 255 and pixels.max() > maxval:
        raise PgmError(f"sample {pixels.max()} above maxval {maxval}")
    return pixels.copy(), maxval


def write_pgm(path, pixels) -> None:
    """Write a binary PGM file of maxval 255, the scale frames must use."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 2:
        raise ValueError(f"expected a 2-d image, got shape {pixels.shape}")
    if pixels.size == 0:
        raise ValueError(f"cannot write an empty image, got shape {pixels.shape}")
    # written as `not` so that a NaN fails the check too
    if not (pixels.min() >= 0 and pixels.max() <= 255):
        raise ValueError("pixel values outside [0, 255]")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n255\n".encode("ascii"))
        fh.write(pixels.astype(np.uint8, copy=False).tobytes())


def read_frame(path) -> np.ndarray:
    """Read one sequence frame, which must use the full 0..255 scale."""
    pixels, maxval = read_pgm(path)
    if maxval != 255:
        raise PgmError(f"{path}: frame maxval is {maxval}, expected 255")
    return pixels


def write_labels(labels, path) -> None:
    """Store a fully committed label map as PGM (0 / 128 / 255)."""
    labels = np.asarray(labels)
    # integer labels need only a range check; others must equal one (1.0, not 1.5)
    if labels.dtype.kind in "iu" and labels.size:
        known = BACKGROUND <= labels.min() and labels.max() <= FOREGROUND
    else:
        known = np.isin(labels, LABELS).all()
    if not known:
        bad = np.unique(labels[~np.isin(labels, LABELS)])
        raise ValueError(f"uncommitted or unknown labels present: {bad.tolist()}")
    # integer labels index the table as they are, with no copy
    index = labels if labels.dtype.kind in "iu" else labels.astype(np.intp)
    write_pgm(path, _BYTE_OF_LABEL[index])


def read_labels(path) -> np.ndarray:
    """Inverse of write_labels: the (H, W) uint8 labels of the map."""
    pixels, _ = read_pgm(path)
    labels = _LABEL_OF_BYTE[pixels]
    if not labels.all():
        bad = np.unique(pixels[labels == 0])
        raise PgmError(f"not a label map, unexpected byte values: {bad.tolist()}")
    return labels
