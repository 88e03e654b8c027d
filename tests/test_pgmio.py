"""Binary PGM reader/writer and the label-map byte encoding."""

import numpy as np
import pytest

from shadowseg.pgmio import PgmError, read_frame, read_labels, read_pgm, write_labels, write_pgm


def test_round_trip_preserves_every_byte_value(tmp_path):
    pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    path = tmp_path / "all.pgm"
    write_pgm(path, pixels)
    back, maxval = read_pgm(path)
    assert maxval == 255
    assert back.dtype == np.uint8
    assert np.array_equal(back, pixels)


def test_round_trip_small_maxval(tmp_path):
    pixels = np.array([[0, 3], [7, 15]], dtype=np.uint8)
    path = tmp_path / "small.pgm"
    write_pgm(path, pixels, maxval=15)
    back, maxval = read_pgm(path)
    assert maxval == 15
    assert np.array_equal(back, pixels)


def test_header_layout(tmp_path):
    path = tmp_path / "h.pgm"
    write_pgm(path, np.zeros((2, 3), dtype=np.uint8))
    assert path.read_bytes() == b"P5\n3 2\n255\n" + b"\x00" * 6


def test_comments_and_mixed_whitespace_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes([10, 20, 30, 40, 50, 60])
    path.write_bytes(b"P5 # binary graymap\n# size next\n 3\t2 # dims\n255\n" + payload)
    pixels, maxval = read_pgm(path)
    assert maxval == 255
    assert np.array_equal(pixels, np.array(list(payload)).reshape(2, 3))


def test_single_separator_then_raw_payload(tmp_path):
    # a first pixel equal to ASCII whitespace must survive
    path = tmp_path / "s.pgm"
    path.write_bytes(b"P5\n2 1\n255\n" + bytes([32, 10]))
    pixels, _ = read_pgm(path)
    assert pixels.tolist() == [[32, 10]]


def test_trailing_bytes_are_ignored(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 1\n255\n\x01\x02junk")
    pixels, _ = read_pgm(path)
    assert pixels.tolist() == [[1, 2]]


def test_ascii_format_is_rejected(tmp_path):
    path = tmp_path / "p2.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(PgmError, match="unsupported"):
        read_pgm(path)


def test_truncated_payload_is_rejected(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 10)
    with pytest.raises(PgmError, match="16"):
        read_pgm(path)


def test_bad_headers_are_rejected(tmp_path):
    cases = [
        b"P5\n0 2\n255\n",          # zero width
        b"P5\n2 2\n0\n\x00" * 4,    # maxval below 1
        b"P5\n2 2\n999\n" + b"\x00" * 4,  # maxval above one byte
        b"P5\n2\n",                 # header ends early
    ]
    for i, blob in enumerate(cases):
        path = tmp_path / f"bad{i}.pgm"
        path.write_bytes(blob)
        with pytest.raises(PgmError):
            read_pgm(path)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        read_pgm(tmp_path / "absent.pgm")


def test_write_validates_input(tmp_path):
    path = tmp_path / "bad.pgm"
    with pytest.raises(ValueError):
        write_pgm(path, np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        write_pgm(path, np.full((2, 2), 20, dtype=np.uint8), maxval=15)
    with pytest.raises(ValueError):
        write_pgm(path, np.zeros((2, 2), dtype=np.uint8), maxval=300)


def test_read_frame_returns_pixels_only(tmp_path):
    pixels = np.array([[5, 6], [7, 8]], dtype=np.uint8)
    path = tmp_path / "f.pgm"
    write_pgm(path, pixels)
    assert np.array_equal(read_frame(path), pixels)


def test_label_bytes_are_exact(tmp_path):
    labels = np.array([[1, 2], [3, 1]], dtype=np.int64)
    path = tmp_path / "lab.pgm"
    write_labels(labels, path)
    raw = path.read_bytes()
    assert raw.endswith(bytes([0, 128, 255, 0]))
    assert np.array_equal(read_labels(path), labels)


def test_label_round_trip_random(tmp_path):
    rng = np.random.default_rng(34)
    labels = rng.integers(1, 4, size=(9, 13))
    path = tmp_path / "lab2.pgm"
    write_labels(labels, path)
    assert np.array_equal(read_labels(path), labels)


def test_unknown_labels_are_rejected(tmp_path):
    path = tmp_path / "lab3.pgm"
    with pytest.raises(ValueError, match="4"):
        write_labels(np.array([[1, 4]]), path)
    with pytest.raises(ValueError, match="0"):
        write_labels(np.array([[0, 1]]), path)


def test_unknown_label_bytes_are_rejected(tmp_path):
    path = tmp_path / "lab4.pgm"
    path.write_bytes(b"P5\n2 1\n255\n\x00\x07")
    with pytest.raises(PgmError):
        read_labels(path)
