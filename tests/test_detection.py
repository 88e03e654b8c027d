"""The one detection path: `process_frame` builds the tables it labels,
once per frame, and hands them to its `dump` hook, through which
`segment --dump-potentials` writes them; `oracles.detection_tables`
rebuilds them from the state."""

import copy
import os

import numpy as np

from oracles import detection_tables, total_energy
import shadowseg.pipeline as pipeline
from shadowseg import EngineConfig, EngineState, process_frame, read_frame
from shadowseg.cli import main
from shadowseg.likelihood import dump_potentials
from shadowseg.synth import SynthScene, generate_synthetic


def scene_frames(tmp_path, n_frames=5):
    scene = SynthScene(height=16, width=16, n_frames=n_frames, lead_in=3,
                       object_size=(5, 5), shadow_size=(5, 5), shadow_offset=(6, 0),
                       start=(1, 1), step=(0, 1), gain=0.5, offset=0.0)
    frame_paths, _ = generate_synthetic(scene, tmp_path, seed=7)
    return frame_paths


def test_process_frame_labels_the_detection_potentials(tmp_path):
    frames = [read_frame(p) for p in scene_frames(tmp_path)]
    state = EngineState.from_static(frames[:3], EngineConfig(alpha=0.1))
    for frame in frames[3:]:
        u1, u2 = detection_tables(state, frame)
        prior = copy.deepcopy(state.prior)
        labels, diag = process_frame(state, frame)
        assert diag.energy == total_energy(labels, u1, u2, prior)


def test_dump_hook_gets_the_tables_the_frame_is_labeled_with(tmp_path):
    frames = [read_frame(p) for p in scene_frames(tmp_path)]
    state = EngineState.from_static(frames[:3], EngineConfig(alpha=0.1))
    for frame in frames[3:]:
        u1, u2 = detection_tables(state, frame)
        dumped = []
        process_frame(state, frame, lambda *tables: dumped.append(tables))
        assert len(dumped) == 1
        assert np.array_equal(dumped[0][0], u1) and np.array_equal(dumped[0][1], u2)


def test_process_frame_checks_its_frame_once(tmp_path, monkeypatch):
    frames = [read_frame(p) for p in scene_frames(tmp_path)]
    state = EngineState.from_static(frames[:3], EngineConfig(alpha=0.1))
    checked = []
    check = pipeline._checked_frame
    monkeypatch.setattr(pipeline, "_checked_frame",
                        lambda *args: checked.append(args) or check(*args))
    for frame in frames[3:]:
        process_frame(state, frame)
    assert len(checked) == len(frames) - 3


def test_dump_is_exactly_the_detection_potentials(tmp_path):
    frame_paths = scene_frames(tmp_path / "scene")
    dump_dir = tmp_path / "pots"
    assert main(["segment", "--input", os.path.dirname(frame_paths[0]),
                 "--out", str(tmp_path / "labels"), "--bg-init", "3", "--lambda2", "2",
                 "--dump-potentials", str(dump_dir)]) == 0

    frames = [read_frame(p) for p in frame_paths]
    state = EngineState.from_static(frames[:3], EngineConfig(lambda2=2.0))
    for k, frame in enumerate(frames[3:], start=1):
        u1, u2 = detection_tables(state, frame)
        expected = tmp_path / f"expected_{k}.f64"
        dump_potentials(u1, u2, expected)
        assert expected.read_bytes() == (dump_dir / f"potentials_{k:04d}.f64").read_bytes()
        process_frame(state, frame)
