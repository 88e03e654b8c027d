"""Per-frame engine: pooled detection variance, labeling against the
previous models, and the update order."""

import copy
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from oracles import detection_arguments, total_energy
from shadowseg import EngineConfig, EngineState, process_frame
from shadowseg.background import VARIANCE_FLOOR, BackgroundModel
from shadowseg.energy import BACKGROUND, SHADOW
from shadowseg.likelihood import build_potential_tables
from shadowseg.pipeline import pooled_variance
from shadowseg.synth import SynthScene, background_pattern, render_scene


def bootstrap_frames(pattern, n=5, sigma=2.0, seed=40):
    rng = np.random.default_rng(seed)
    return [pattern + sigma * rng.standard_normal(pattern.shape) for _ in range(n)]


def test_pooled_variance_values():
    bg = BackgroundModel(mean=np.zeros((4, 4)), variance=np.full((4, 4), 9.0))
    assert pooled_variance(bg) == 9.0
    mixed = np.full((4, 4), 4.0)
    mixed[:2] = 16.0
    assert pooled_variance(BackgroundModel(mean=np.zeros((4, 4)), variance=mixed)) == 10.0


def test_reported_energy_matches_detection_tables():
    # rebuilding the detection-time potentials (pooled intensity variance,
    # twice-pooled flat edge variances, pre-update models) must reproduce
    # the optimizer's reported energy on the returned labels
    pattern = background_pattern(12, 12)
    state = EngineState.from_static(bootstrap_frames(pattern))
    frame = pattern + np.random.default_rng(41).normal(0, 2, size=(12, 12))
    frame[4:8, 4:8] = 230.0

    arguments = detection_arguments(state, frame)
    prior = copy.deepcopy(state.prior)

    labels, diag = process_frame(state, frame)

    u1, u2 = build_potential_tables(*arguments)
    assert np.isclose(diag.energy, total_energy(labels, u1, u2, prior),
                      rtol=1e-9, atol=1e-9)


def test_static_bootstrap_labels_the_empty_scene_background():
    pattern = background_pattern(16, 16)
    frames = bootstrap_frames(pattern, n=6)
    state = EngineState.from_static(frames)
    rng = np.random.default_rng(42)
    for _ in range(3):
        frame = pattern + 2.0 * rng.standard_normal(pattern.shape)
        labels, diag = process_frame(state, frame)
        frac = np.count_nonzero(labels == BACKGROUND) / labels.size
        assert frac >= 0.99
        assert diag.n_background + diag.n_shadow + diag.n_foreground == labels.size


def test_adaptive_bootstrap_first_frame_is_background():
    pattern = background_pattern(16, 16)
    state = EngineState.from_first_frame(pattern)
    labels, _ = process_frame(state, pattern)
    assert np.all(labels == BACKGROUND)


def test_labels_are_an_h_by_w_uint8_grid():
    # one byte a site: the HCF kernel's own state array, returned as it is
    scene = SynthScene(height=9, width=13, n_frames=7, lead_in=5, object_size=(3, 3),
                       shadow_size=(3, 3), shadow_offset=(4, 0), start=(1, 2))
    frames, _ = render_scene(scene, seed=3)
    state = EngineState.from_static(frames[:5])
    for frame in frames[5:]:
        labels, diag = process_frame(state, frame)
        assert labels.dtype == np.uint8 and labels.shape == (9, 13)
        assert labels.flags.c_contiguous
        assert np.bincount(labels.ravel(), minlength=4)[1:].tolist() == [
            diag.n_background, diag.n_shadow, diag.n_foreground]


def test_full_shadow_frame_goes_majority_shadow():
    # shadow cast at the transform's starting point covers the whole frame
    pattern = background_pattern(16, 16)
    state = EngineState.from_static(bootstrap_frames(pattern))
    rng = np.random.default_rng(43)
    shadowed = 0.5 * pattern + 0.0
    labels = None
    for _ in range(3):
        frame = shadowed + 2.0 * rng.standard_normal(pattern.shape)
        labels, _ = process_frame(state, frame)
    assert np.count_nonzero(labels == SHADOW) / labels.size > 0.5


def test_k_counts_processed_frames():
    pattern = background_pattern(12, 12)
    state = EngineState.from_static(bootstrap_frames(pattern))
    assert state.k == 0
    for expected in (1, 2, 3):
        _, diag = process_frame(state, pattern)
        assert state.k == expected
        assert diag.k == expected


def test_diagnostics_report_the_carried_shadow_params():
    pattern = background_pattern(16, 16)
    state = EngineState.from_static(bootstrap_frames(pattern))
    frame = 0.5 * pattern
    _, diag = process_frame(state, frame)
    assert diag.gain == state.shadow.gain
    assert diag.offset == state.shadow.offset


def test_shape_mismatch_raises():
    state = EngineState.from_first_frame(background_pattern(8, 8))
    with pytest.raises(ValueError):
        process_frame(state, np.zeros((8, 9)))


def test_labels_are_causal():
    # the labels of frame k never depend on later frames
    pattern = background_pattern(12, 12)
    scene = SynthScene(height=12, width=12, n_frames=3, background=pattern,
                       object_size=(4, 4), shadow_size=(4, 4), shadow_offset=(5, 0),
                       start=(1, 1), step=(0, 2), noise_sigma=1.0)
    frames, _ = render_scene(scene, seed=44)

    state_a = EngineState.from_static(bootstrap_frames(pattern))
    first_a, _ = process_frame(state_a, frames[0])
    state_b = EngineState.from_static(bootstrap_frames(pattern))
    first_b, _ = process_frame(state_b, frames[0])
    process_frame(state_b, np.zeros_like(frames[1], dtype=np.float64) + 200.0)
    assert np.array_equal(first_a, first_b)


def test_processing_is_deterministic():
    pattern = background_pattern(12, 12)
    scene = SynthScene(height=12, width=12, n_frames=4, background=pattern,
                       object_size=(4, 4), shadow_size=(4, 4), shadow_offset=(5, 0),
                       start=(1, 1), step=(0, 2), noise_sigma=2.0)
    frames, _ = render_scene(scene, seed=45)

    runs = []
    for _ in range(2):
        state = EngineState.from_static(bootstrap_frames(pattern))
        out = [process_frame(state, f) for f in frames]
        runs.append(out)
    for (la, da), (lb, db) in zip(*runs):
        assert np.array_equal(la, lb)
        assert da == db


def test_mixture_update_uses_per_pixel_variances():
    # after processing, the background variance tracks the scene per pixel
    # rather than the pooled value used during detection
    pattern = background_pattern(12, 12)
    state = EngineState.from_static(bootstrap_frames(pattern))
    before = state.background.variance.copy()
    assert before.std() > 0.0
    process_frame(state, pattern)
    after = state.background.variance
    assert after.std() > 0.0
    assert np.all(after >= VARIANCE_FLOOR)


def test_prior_bias_tracks_label_frequencies():
    pattern = background_pattern(16, 16)
    state = EngineState.from_static(bootstrap_frames(pattern),
                                    EngineConfig(alpha=0.5))
    process_frame(state, pattern)
    # an all-background frame pulls the background bias down
    assert state.prior.bias[0] < -1.0 / 3.0
    assert abs(state.prior.bias.sum() + 1.0) <= 1e-9


# Four episodes of a static bootstrap and 8 frames on the seed-1 scene of
# the benchmark's qvga_static workload, each episode's bootstrap while the
# previous state is still alive, as the benchmark runs them; prints the
# mean minor page faults per frame of each episode.
FAULT_LOOP = """
import resource
from oracles import BENCHMARK_WORKLOADS
from shadowseg import EngineState, process_frame
from shadowseg.synth import render_scene

workload = BENCHMARK_WORKLOADS["qvga_static"]
scene = workload["scene"]
frames, _ = render_scene(scene, seed=1)
lead_in, labeled = frames[:scene.lead_in], frames[scene.lead_in:scene.lead_in + 8]
state = None
for episode in range(4):
    state = EngineState.from_static(lead_in, workload["config"])
    faults = 0
    for frame in labeled:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        labels, diag = process_frame(state, frame)
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(faults / len(labeled))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the fault count rests on glibc's malloc")
def test_frames_after_the_first_episode_take_few_page_faults():
    # glibc raises its mmap threshold only when a large mmapped chunk is
    # freed. The static bootstrap frees one, its stack of frames, so later
    # frames reuse the heap's pages; a bootstrap that freed none would
    # leave every frame's arrays to fresh mmaps, about 470 to 1,270 faults
    # a frame
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", FAULT_LOOP], capture_output=True, text=True,
                          env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-4000:]
    per_frame = [float(value) for value in proc.stdout.split()]
    assert len(per_frame) == 4
    assert sum(per_frame[1:]) / 3 <= 100, per_frame
