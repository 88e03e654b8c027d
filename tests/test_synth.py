"""Synthetic scene rendering: planted transform, masks as truth,
reproducibility, and the on-disk layout."""

import numpy as np
import pytest

from shadowseg.energy import BACKGROUND, FOREGROUND, SHADOW
from shadowseg.pgmio import read_frame, read_labels
from shadowseg.synth import (SynthScene, background_pattern, generate_synthetic,
                             render_scene, scene_preset)


def quiet_scene(**overrides):
    base = dict(height=24, width=24, n_frames=3, object_size=(0, 0),
                shadow_size=(0, 0), noise_sigma=0.0)
    base.update(overrides)
    return SynthScene(**base)


def test_empty_noiseless_scene_reproduces_the_pattern():
    scene = quiet_scene()
    frames, truths = render_scene(scene)
    expected = np.clip(np.rint(background_pattern(24, 24)), 0, 255).astype(np.uint8)
    for frame, truth in zip(frames, truths):
        assert frame.dtype == np.uint8
        assert np.array_equal(frame, expected)
        assert np.all(truth == BACKGROUND)


def test_planted_shadow_value_on_flat_background():
    scene = quiet_scene(background=np.full((24, 24), 100.0),
                        shadow_size=(6, 6), shadow_offset=(0, 0),
                        start=(4, 4), step=(0, 0), gain=0.6, offset=5.0)
    frames, truths = render_scene(scene)
    # 0.6 * 100 + 5 = 65, exact without noise
    assert np.all(frames[0][4:10, 4:10] == 65)
    assert np.all(truths[0][4:10, 4:10] == SHADOW)
    outside = frames[0].copy()
    outside[4:10, 4:10] = 100
    assert np.all(outside == 100)
    assert np.count_nonzero(truths[0] == SHADOW) == 36


def test_object_overrides_shadow_and_truth_follows_masks():
    scene = quiet_scene(background=np.full((24, 24), 100.0),
                        object_size=(4, 4), object_value=230.0,
                        shadow_size=(8, 8), shadow_offset=(0, 0),
                        start=(4, 4), step=(0, 0))
    frames, truths = render_scene(scene)
    assert np.all(frames[0][4:8, 4:8] == 230)
    assert np.all(truths[0][4:8, 4:8] == FOREGROUND)
    # the shadow survives around the object
    assert truths[0][10, 10] == SHADOW
    assert np.count_nonzero(truths[0] == FOREGROUND) == 16


def test_camouflaged_object_is_still_foreground_in_truth():
    scene = quiet_scene(background=np.full((24, 24), 100.0),
                        object_size=(4, 4), object_value=100.0,
                        start=(4, 4), step=(0, 0))
    frames, truths = render_scene(scene)
    assert np.all(frames[0] == 100)
    assert np.count_nonzero(truths[0] == FOREGROUND) == 16


def test_lead_in_frames_are_object_free():
    scene = quiet_scene(n_frames=4, lead_in=2, object_size=(4, 4),
                        start=(2, 2), step=(0, 0))
    _, truths = render_scene(scene)
    assert np.all(truths[0] == BACKGROUND)
    assert np.all(truths[1] == BACKGROUND)
    assert np.count_nonzero(truths[2] == FOREGROUND) == 16


def test_object_moves_by_step_each_active_frame():
    scene = quiet_scene(n_frames=3, object_size=(3, 3), start=(2, 2), step=(1, 4))
    _, truths = render_scene(scene)
    for k, truth in enumerate(truths):
        rows, cols = np.nonzero(truth == FOREGROUND)
        assert rows.min() == 2 + k
        assert cols.min() == 2 + 4 * k


def test_rectangles_clamp_at_the_border():
    scene = quiet_scene(n_frames=6, object_size=(4, 4), start=(0, 12), step=(0, 4))
    _, truths = render_scene(scene)
    for truth in truths:
        assert np.count_nonzero(truth == FOREGROUND) == 16
    assert np.nonzero(truths[-1] == FOREGROUND)[1].max() == 23


def test_noise_and_clipping_bounds():
    scene = quiet_scene(background=np.full((24, 24), 250.0), noise_sigma=30.0)
    frames, _ = render_scene(scene, seed=1)
    assert frames[0].max() <= 255
    assert frames[0].min() >= 0


def test_flicker_strip_redraws_every_frame():
    scene = quiet_scene(n_frames=2, flicker_rows=5)
    frames, truths = render_scene(scene, seed=2)
    assert not np.array_equal(frames[0][:5], frames[1][:5])
    assert np.array_equal(frames[0][5:], frames[1][5:])
    # flicker is appearance only, not truth
    assert np.all(truths[0] == BACKGROUND)


def test_rendering_is_seed_reproducible():
    scene = SynthScene(height=24, width=24, n_frames=3)
    a, _ = render_scene(scene, seed=5)
    b, _ = render_scene(scene, seed=5)
    c, _ = render_scene(scene, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_scene_validation():
    with pytest.raises(ValueError):
        quiet_scene(gain=0.0)
    with pytest.raises(ValueError):
        quiet_scene(gain=1.5)
    with pytest.raises(ValueError):
        quiet_scene(noise_sigma=-1.0)
    with pytest.raises(ValueError):
        quiet_scene(background=np.zeros((3, 3)))


def test_generated_files_round_trip(tmp_path):
    scene = SynthScene(height=16, width=16, n_frames=3)
    frame_paths, truth_paths = generate_synthetic(scene, tmp_path, seed=3)
    assert [p.split("/")[-1] for p in frame_paths] == [
        "frame_0001.pgm", "frame_0002.pgm", "frame_0003.pgm"]
    frames, truths = render_scene(scene, seed=3)
    for path, frame in zip(frame_paths, frames):
        assert np.array_equal(read_frame(path), frame)
    for path, truth in zip(truth_paths, truths):
        assert np.array_equal(read_labels(path), truth)


def test_generation_is_byte_reproducible(tmp_path):
    scene = SynthScene(height=16, width=16, n_frames=2)
    pa, _ = generate_synthetic(scene, tmp_path / "a", seed=4)
    pb, _ = generate_synthetic(scene, tmp_path / "b", seed=4)
    for x, y in zip(pa, pb):
        with open(x, "rb") as fx, open(y, "rb") as fy:
            assert fx.read() == fy.read()


def test_presets():
    quality = scene_preset("quality")
    assert quality.object_size == (14, 14)
    assert quality.gain == 0.5 and quality.offset == 0.0
    assert quality.lead_in == 5

    recovery = scene_preset("recovery")
    assert recovery.object_size == (0, 0)
    assert recovery.flicker_rows > 0
    assert recovery.gain == 0.6 and recovery.offset == 5.0

    tweaked = scene_preset("quality", n_frames=7, gain=0.8, offset=1.0, noise_sigma=0.5)
    assert tweaked.n_frames == 7
    assert tweaked.gain == 0.8
    assert tweaked.offset == 1.0
    assert tweaked.noise_sigma == 0.5

    with pytest.raises(ValueError):
        scene_preset("nope")
