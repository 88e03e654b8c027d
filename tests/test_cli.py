"""End-to-end command-line flows: synth, segment, eval, config files,
and the raw potential dump."""

import dataclasses
import json
import os

import numpy as np
import pytest

from oracles import detection_tables
from shadowseg import EngineState, _native, cli
from shadowseg.cli import DIAG_HEADER, _read_config_file, _setting_types, build_parser, main
from shadowseg.likelihood import dump_potentials
from shadowseg.pgmio import read_frame, read_labels, write_labels
from shadowseg.pipeline import EngineConfig
from shadowseg.synth import SynthScene, generate_synthetic


def tiny_sequence(tmp_path, n_frames=6, **overrides):
    scene = SynthScene(height=16, width=16, n_frames=n_frames, lead_in=3,
                       object_size=(5, 5), shadow_size=(5, 5), shadow_offset=(6, 0),
                       start=(1, 1), step=(0, 1), gain=0.5, offset=0.0,
                       noise_sigma=2.0, **overrides)
    generate_synthetic(scene, tmp_path, seed=7)
    return os.path.join(tmp_path, "frames"), os.path.join(tmp_path, "truth")


def test_synth_then_eval_against_itself(tmp_path, capsys):
    out = tmp_path / "scene"
    assert main(["synth", "--out", str(out), "--preset", "quality",
                 "--frames", "4", "--seed", "1"]) == 0
    frames = sorted(os.listdir(out / "frames"))
    truths = sorted(os.listdir(out / "truth"))
    assert frames == [f"frame_{k:04d}.pgm" for k in (1, 2, 3, 4)]
    assert truths == [f"truth_{k:04d}.pgm" for k in (1, 2, 3, 4)]

    capsys.readouterr()
    assert main(["eval", "--pred", str(out / "truth"),
                 "--truth", str(out / "truth")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pixel_accuracy"] == 1.0


def test_segment_writes_labels_and_diagnostics(tmp_path):
    frame_dir, _ = tiny_sequence(tmp_path / "scene")
    out = tmp_path / "labels"
    diag = tmp_path / "diag.csv"
    assert main(["segment", "--input", frame_dir, "--out", str(out),
                 "--bg-init", "3", "--alpha", "0.1", "--diag", str(diag)]) == 0

    written = sorted(os.listdir(out))
    assert written == [f"labels_{k:04d}.pgm" for k in (1, 2, 3)]
    labels = read_labels(os.path.join(out, written[0]))
    assert labels.shape == (16, 16)

    lines = diag.read_text().strip().split("\n")
    assert lines[0] == DIAG_HEADER
    assert len(lines) == 4
    for line in lines[1:]:
        k, energy, n_bg, n_sh, n_fg, a, c, visits = line.split(",")
        assert int(n_bg) + int(n_sh) + int(n_fg) == 256
        assert int(visits) >= 256
        float(energy), float(a), float(c)
    assert [row.split(",")[0] for row in lines[1:]] == ["1", "2", "3"]


def test_segment_adaptive_mode_processes_every_frame(tmp_path):
    frame_dir, _ = tiny_sequence(tmp_path / "scene", n_frames=4)
    out = tmp_path / "labels"
    assert main(["segment", "--input", frame_dir, "--out", str(out)]) == 0
    assert len(os.listdir(out)) == 4
    # the seed frame is labeled against itself: all background
    first = read_labels(os.path.join(out, "labels_0001.pgm"))
    assert np.all(first == 1)


def test_segment_accepts_globs(tmp_path):
    frame_dir, _ = tiny_sequence(tmp_path / "scene", n_frames=4)
    out = tmp_path / "labels"
    pattern = os.path.join(frame_dir, "frame_*.pgm")
    assert main(["segment", "--input", pattern, "--out", str(out),
                 "--bg-init", "2"]) == 0
    assert len(os.listdir(out)) == 2


def test_segment_runs_are_byte_identical(tmp_path):
    frame_dir, _ = tiny_sequence(tmp_path / "scene")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        diag = tmp_path / f"{name}.csv"
        assert main(["segment", "--input", frame_dir, "--out", str(out),
                     "--bg-init", "3", "--diag", str(diag)]) == 0
        outs.append((out, diag))
    (out_a, diag_a), (out_b, diag_b) = outs
    for name in sorted(os.listdir(out_a)):
        with open(out_a / name, "rb") as fa, open(out_b / name, "rb") as fb:
            assert fa.read() == fb.read()
    assert diag_a.read_bytes() == diag_b.read_bytes()


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys, monkeypatch):
    frame_dir, _ = tiny_sequence(tmp_path / "scene", n_frames=4)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("speed = 11\n")
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    runs = []
    try:
        for name in ("a", "b"):
            out, diag = tmp_path / name, tmp_path / f"{name}.csv"
            assert main(["segment", "--input", frame_dir, "--out", str(out),
                         "--diag", str(diag)]) == 0
            capsys.readouterr()
            assert main(["segment", "--input", frame_dir, "--out", str(out),
                         "--alpha", "2"]) == 1
            assert main(["segment", "--config", str(cfg)]) == 1
            with pytest.raises(SystemExit) as exit_info:
                main(["segment", "--alpha", "fast"])
            files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
            runs.append((files, diag.read_bytes(), capsys.readouterr().err, exit_info.value.code))
    finally:
        cli._parser.cache_clear()
    assert built == [1]
    assert runs[0] == runs[1]
    files, _, err, code = runs[0]
    assert len(files) == 4 and code == 2
    assert err.splitlines()[:2] == ["error: alpha must be in (0, 1], got 2.0",
                                    f"error: {cfg}:1: unknown setting 'speed'"]
    assert "argument --alpha: invalid float value: 'fast'" in err


def test_config_file_supplies_settings_and_flags_win(tmp_path):
    frame_dir, _ = tiny_sequence(tmp_path / "scene", n_frames=4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# engine settings\n"
        f"input = {frame_dir}\n"
        f"out = {tmp_path / 'from_config'}\n"
        "bg-init = 2\n"
        "alpha = 0.1   # comment after value\n"
        "lambda2 = 1.0\n"
    )
    parsed = _read_config_file(cfg)
    assert parsed["bg_init"] == 2
    assert parsed["alpha"] == 0.1

    assert main(["segment", "--config", str(cfg)]) == 0
    assert len(os.listdir(tmp_path / "from_config")) == 2

    override = tmp_path / "override"
    assert main(["segment", "--config", str(cfg), "--out", str(override),
                 "--bg-init", "3"]) == 0
    assert len(os.listdir(override)) == 1


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # ymax and k_gaussians were settings once: old files must fail, not be ignored
    for key, value in (("speed", "11"), ("ymax", "250"), ("k_gaussians", "4")):
        cfg.write_text(f"{key} = {value}\n")
        assert main(["segment", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"bad.cfg:1: unknown setting {key!r}" in err


def test_every_engine_setting_is_a_segment_setting_of_the_same_name():
    types = _setting_types()
    for config_field in dataclasses.fields(EngineConfig):
        assert config_field.name in types


def test_error_paths_exit_nonzero(tmp_path, capsys):
    assert main(["segment", "--input", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err

    frame_dir, _ = tiny_sequence(tmp_path / "scene", n_frames=4)
    assert main(["segment", "--input", frame_dir, "--out", str(tmp_path / "o"),
                 "--bg-init", "4"]) == 1
    assert main(["segment", "--out", str(tmp_path / "o")]) == 1
    assert main(["eval", "--pred", str(tmp_path / "none"),
                 "--truth", str(tmp_path / "none")]) == 1
    capsys.readouterr()

    # a static bootstrap needs two frames, so one is refused where the flag is read
    assert main(["segment", "--input", frame_dir, "--out", str(tmp_path / "o"),
                 "--bg-init", "1"]) == 1
    assert capsys.readouterr().err == ("error: bg-init must be 0 (adaptive start) "
                                       "or at least 2, got 1\n")
    assert main(["segment", "--input", frame_dir, "--out", str(tmp_path / "o"),
                 "--bg-init", "-1"]) == 1
    assert capsys.readouterr().err == ("error: bg-init must be 0 (adaptive start) "
                                       "or at least 2, got -1\n")

    assert main(["segment", "--input", frame_dir]) == 1
    assert capsys.readouterr().err == ("error: no output directory given "
                                       "(flag --out or config key out)\n")
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"input = {frame_dir}\nalpha 0.1\n")
    assert main(["segment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'alpha 0.1'\n"


def test_synth_rejects_scenes_it_cannot_render(tmp_path, capsys):
    for flags in (["--frames", "0"], ["--frames", "-1"], ["--noise", "nan"], ["--c", "nan"]):
        assert main(["synth", *flags, "--out", str(tmp_path / "s")]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "s").exists()


def test_segment_fails_cleanly_when_the_kernels_cannot_build(tmp_path, monkeypatch, capsys):
    frame_dir, _ = tiny_sequence(tmp_path / "scene", n_frames=4)
    out = tmp_path / "labels"
    monkeypatch.setattr(_native, "_SOURCE", str(tmp_path / "missing.c"))
    _native.library.cache_clear()
    try:
        assert main(["segment", "--input", frame_dir, "--out", str(out),
                     "--diag", str(tmp_path / "diag.csv")]) == 1
    finally:
        monkeypatch.undo()
        _native.library.cache_clear()
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read the kernel source")
    assert "missing.c" in err and "Traceback" not in err
    assert not out.exists() and not (tmp_path / "diag.csv").exists()


def test_segment_refuses_a_diag_path_before_the_first_frame(tmp_path, capsys):
    frame_dir, _ = tiny_sequence(tmp_path / "scene", n_frames=4)
    out = tmp_path / "labels"
    diag = tmp_path / "missing" / "diag.csv"
    assert main(["segment", "--input", frame_dir, "--out", str(out), "--diag", str(diag)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(diag) in err
    assert os.listdir(out) == []


def test_eval_report_file_and_mixed_prediction(tmp_path):
    truth_dir = tmp_path / "truth"
    pred_dir = tmp_path / "pred"
    os.makedirs(truth_dir)
    os.makedirs(pred_dir)
    truth = np.ones((4, 4), dtype=int)
    truth[0, :2] = 2
    pred = np.ones((4, 4), dtype=int)
    write_labels(truth, truth_dir / "t_0001.pgm")
    write_labels(pred, pred_dir / "p_0001.pgm")
    report_path = tmp_path / "report.json"
    assert main(["eval", "--pred", str(pred_dir), "--truth", str(truth_dir),
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["pixel_accuracy"] == 14 / 16
    assert report["recall"]["shadow"] == 0.0
    assert report["confusion"][1][0] == 2


def test_dump_potentials_match_detection_state(tmp_path):
    frame_dir, _ = tiny_sequence(tmp_path / "scene", n_frames=5)
    out = tmp_path / "labels"
    dump_dir = tmp_path / "pots"
    assert main(["segment", "--input", frame_dir, "--out", str(out),
                 "--bg-init", "3", "--dump-potentials", str(dump_dir)]) == 0
    dumps = sorted(os.listdir(dump_dir))
    assert dumps == ["potentials_0001.f64", "potentials_0002.f64"]

    # replay the engine to the first detection and rebuild its tables
    paths = sorted(os.listdir(frame_dir))
    boot = [read_frame(os.path.join(frame_dir, p)) for p in paths[:3]]
    state = EngineState.from_static(boot, EngineConfig())
    frame = read_frame(os.path.join(frame_dir, paths[3]))
    u1, u2 = detection_tables(state, frame)
    expected = tmp_path / "expected.f64"
    dump_potentials(u1, u2, expected)
    assert expected.read_bytes() == (dump_dir / dumps[0]).read_bytes()
