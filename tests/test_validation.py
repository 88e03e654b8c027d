"""Bad settings and bad input are rejected at the boundary with a clear
error: engine settings out of range, frames with NaN or infinite pixels,
and PGM frames that do not use the 0..255 scale."""

import numpy as np
import pytest

from shadowseg import EngineConfig, EngineState, PgmError, process_frame, read_frame
from shadowseg.cli import main
from shadowseg.pgmio import read_pgm, write_pgm


@pytest.mark.parametrize("setting, value, message", [
    ("k_gaussians", 1, "k_gaussians"),
    ("k_gaussians", 2, "k_gaussians"),
    ("k_gaussians", 6, "k_gaussians"),
    ("k_gaussians", 9, "k_gaussians"),
    ("alpha", 0.0, "alpha"),
    ("alpha", -0.1, "alpha"),
    ("alpha", 1.5, "alpha"),
    ("alpha", 2.0, "alpha"),
    ("alpha", float("nan"), "alpha"),
    ("lambda1", -1.0, "lambda1"),
    ("lambda1", float("nan"), "lambda1"),
    ("lambda2", -1.0, "lambda2"),
    ("lambda2", float("nan"), "lambda2"),
    ("y_max", 0.0, "y_max"),
    ("y_max", -255.0, "y_max"),
    ("y_max", float("nan"), "y_max"),
])
def test_engine_config_rejects_out_of_range_settings(setting, value, message):
    with pytest.raises(ValueError, match=message):
        EngineConfig(**{setting: value})


@pytest.mark.parametrize("settings", [
    {"k_gaussians": 3}, {"k_gaussians": 5}, {"alpha": 1.0}, {"alpha": 1e-6},
    {"lambda1": 0.0}, {"lambda2": 0.0}, {"y_max": 1.0},
])
def test_engine_config_accepts_range_edges(settings):
    EngineConfig(**settings)


def tiny_frames(tmp_path, n=3):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    rng = np.random.default_rng(5)
    for k in range(n):
        write_pgm(frame_dir / f"frame_{k:04d}.pgm",
                  rng.integers(90, 110, size=(8, 8), dtype=np.uint8))
    return frame_dir


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "2"), ("--lambda2", "-1"), ("--k-gaussians", "9"), ("--ymax", "0"),
])
def test_segment_rejects_out_of_range_settings(tmp_path, capsys, flag, value):
    frame_dir = tiny_frames(tmp_path)
    out = tmp_path / "labels"
    assert main(["segment", "--input", str(frame_dir), "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not out.exists()


def test_config_file_settings_are_validated_too(tmp_path, capsys):
    frame_dir = tiny_frames(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {frame_dir}\nout = {tmp_path / 'labels'}\nalpha = 2\n")
    assert main(["segment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frames_are_rejected(bad):
    rng = np.random.default_rng(6)
    frames = [100.0 + rng.normal(0, 2, size=(8, 8)) for _ in range(3)]
    poisoned = frames[0].copy()
    poisoned[3, 4] = bad

    with pytest.raises(ValueError, match="NaN or infinite"):
        EngineState.from_static([frames[1], poisoned])
    with pytest.raises(ValueError, match="NaN or infinite"):
        EngineState.from_first_frame(poisoned)

    state = EngineState.from_static(frames[1:])
    with pytest.raises(ValueError, match="NaN or infinite"):
        process_frame(state, poisoned)
    assert state.k == 0
    labels, diag = process_frame(state, frames[0])
    assert np.isfinite(diag.energy)


def test_read_frame_rejects_maxval_below_255(tmp_path):
    pixels = np.array([[0, 5], [10, 15]], dtype=np.uint8)
    path = tmp_path / "small.pgm"
    write_pgm(path, pixels, maxval=15)
    with pytest.raises(PgmError, match="maxval"):
        read_frame(path)
    back, maxval = read_pgm(path)
    assert maxval == 15 and np.array_equal(back, pixels)


def test_segment_reports_small_maxval_frames(tmp_path, capsys):
    frame_dir = tiny_frames(tmp_path)
    write_pgm(frame_dir / "frame_0001.pgm", np.full((8, 8), 7, dtype=np.uint8), maxval=15)
    assert main(["segment", "--input", str(frame_dir), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "maxval" in err
