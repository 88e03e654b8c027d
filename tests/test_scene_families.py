"""Scenes that defeat the background or shadow model, recorded as strict
xfails that name their ROADMAP item; a fix turns each into a pass.

- Item 2, a shadow model that does not adapt: the shadow transform stays
  near its start, gain 0.5, so the shadow of any other planted gain is
  labelled foreground. The planted 0.5 is a plain case, which shows the
  check can pass.
- Item 5, global illumination drift: a slow uniform change of brightness
  leaves the background means behind, and the frame floods with
  foreground.
- Item 6, ghosts after adaptive start: when the seed frame holds the
  object, its intensities become the background there, and a ghost stays
  long after the object has left.
- Item 6, repro 2, a moved object: under a static bootstrap whose frames
  hold an object that is gone once labelling starts, its intensities
  are the background there, and the same ghost stays.
- Item 12, a light switch: after a sudden uniform change of brightness
  the frame floods with foreground, and the label bias, driven to the
  foreground, keeps it flooded after the background has caught up.
- Item 8, the shadow's outline labelled foreground: at an outline pixel
  the edge spans one lit and one shadowed neighbour, which neither the
  background nor the shadow edge model explains, so even at the planted
  gain 0.5 the one-pixel outline of the shadow is lost.
- Item 13, a soft shadow: where the gain ramps from 0.5 up to 1 over the
  shadow's outer pixels, the penumbra lies outside the one-gain model
  and its edges carry the ramp, so it is labelled foreground. A hard
  shadow of the same scene is the plain case.
"""

import numpy as np
import pytest

from shadowseg.energy import BACKGROUND, FOREGROUND, SHADOW
from shadowseg.evaluate import evaluate
from shadowseg.pipeline import EngineState, process_frame
from shadowseg.shadow import Y_MAX
from shadowseg.synth import SynthScene, background_pattern, render_scene

FLOOD_MARGIN = 0.1      # foreground fraction allowed above the truth's largest
GHOST_FRAMES = 60       # object-free frames by which a ghost must be gone
SWITCH_FRAME = 10       # labelled frame from which the light is switched
SHADOW_FRAMES = 8       # last frames over which the shadow is scored
SHADOW_RECALL = 0.6     # shadow recall required over them
OUTLINE_RECALL = 0.95   # shadow recall required over them, the outline included
GAIN_TOLERANCE = 0.05   # largest |learned gain - planted gain|
PENUMBRA_SHARE = 0.9    # share of the penumbra labelled shadow over the last frames

GAIN_NOT_LEARNED = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: the shadow transform stays near gain 0.5")


def shadow_scene_run(gain):
    """The unmasked shadow recall over the last SHADOW_FRAMES frames of a
    scene with a shadow of planted `gain`, and the learned gain."""
    scene = SynthScene(n_frames=20, lead_in=5, gain=gain, offset=0.0, noise_sigma=2.0)
    frames, truths = render_scene(scene, seed=0)
    state = EngineState.from_static(frames[:scene.lead_in])
    labels = [process_frame(state, frame)[0] for frame in frames[scene.lead_in:]]
    recall = evaluate(labels[-SHADOW_FRAMES:], truths[-SHADOW_FRAMES:]).recall["shadow"]
    return recall, state.shadow.gain


@pytest.mark.parametrize("gain", [0.5] + [pytest.param(g, marks=GAIN_NOT_LEARNED)
                                          for g in (0.3, 0.4, 0.6, 0.7)])
def test_shadow_transform_learns_the_planted_gain(gain):
    recall, learned = shadow_scene_run(gain)
    assert recall >= SHADOW_RECALL and abs(learned - gain) <= GAIN_TOLERANCE, (recall, learned)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 8: the shadow's one-pixel outline is labelled foreground")
def test_shadow_outline_is_labelled_shadow():
    recall, _ = shadow_scene_run(0.5)
    assert recall >= OUTLINE_RECALL, recall


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 5: global illumination drift floods the frame")
@pytest.mark.parametrize("drift", [-1, 1, 2])
def test_global_drift_does_not_flood(drift):
    # d * k grey levels added to frame k, static bootstrap from the lead-in
    scene = SynthScene(n_frames=85, lead_in=5, step=(0, 1))
    frames, truths = render_scene(scene, seed=0)
    frames = [np.clip(frame.astype(np.float64) + drift * k, 0, 255)
              for k, frame in enumerate(frames)]
    state = EngineState.from_static(frames[:scene.lead_in])
    limit = max(np.mean(truth == FOREGROUND) for truth in truths[scene.lead_in:]) + FLOOD_MARGIN
    fractions = [np.mean(process_frame(state, frame)[0] == FOREGROUND)
                 for frame in frames[scene.lead_in:]]
    assert max(fractions) <= limit, (max(fractions), limit)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: a seed frame holding the object leaves a ghost")
def test_adaptive_start_ghost_clears():
    seed_frame = render_scene(SynthScene(n_frames=1, gain=0.5), seed=0)[0][0]
    state = EngineState.from_first_frame(seed_frame)
    # the first frames of an object-free sequence
    frames, _ = render_scene(SynthScene(n_frames=GHOST_FRAMES, lead_in=GHOST_FRAMES), seed=1)
    for frame in frames:
        labels, _ = process_frame(state, frame)
    assert np.count_nonzero(labels == FOREGROUND) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 6: an object in the bootstrap frames leaves a ghost")
def test_moved_object_ghost_clears():
    # labelled frames 0 to GHOST_FRAMES of the empty scene, after a static
    # bootstrap from frames that also hold a 14 x 14 block
    scene = SynthScene(n_frames=5 + GHOST_FRAMES + 1, lead_in=5,
                       object_size=(0, 0), shadow_size=(0, 0))
    frames, _ = render_scene(scene, seed=0)
    boot = [frame.copy() for frame in frames[:scene.lead_in]]
    for frame in boot:
        frame[20:34, 20:34] = 230
    state = EngineState.from_static(boot)
    for frame in frames[scene.lead_in:]:
        labels, _ = process_frame(state, frame)
    assert np.count_nonzero(labels == FOREGROUND) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 12: after a light switch the flood never ends")
@pytest.mark.parametrize("step", [20, -30])
def test_light_switch_flood_clears(step):
    # `step` grey levels added to every labelled frame from SWITCH_FRAME on,
    # static bootstrap from the lead-in; the last, labelled frame 209, is
    # the 200th under the switched light
    scene = SynthScene(n_frames=215, lead_in=5, object_size=(0, 0), shadow_size=(0, 0))
    frames, truths = render_scene(scene, seed=0)
    state = EngineState.from_static(frames[:scene.lead_in])
    labelled = frames[scene.lead_in:]
    labelled[SWITCH_FRAME:] = [np.clip(frame.astype(np.float64) + step, 0, 255)
                               for frame in labelled[SWITCH_FRAME:]]
    limit = max(np.mean(truth == FOREGROUND) for truth in truths[scene.lead_in:]) + FLOOD_MARGIN
    for frame in labelled:
        labels, _ = process_frame(state, frame)
    assert np.mean(labels == FOREGROUND) <= limit, (np.mean(labels == FOREGROUND), limit)


def soft_shadow_run(width):
    """The shares of the umbra and of the penumbra labelled shadow over the
    last SHADOW_FRAMES of 15 labelled frames. A 20 x 20 shadow of gain 0.5
    moves 2 px per frame across the 64 x 64 `background_pattern` under
    noise sigma 2, after a static bootstrap from 5 frames. Over its outer
    `width` pixels the gain ramps linearly to 1: the pixel at depth d < width
    from the shadow's edge has gain 1 - 0.5 (d + 1) / (width + 1). The
    truth labels the whole shadow, its ramp included."""
    rng, lead_in = np.random.default_rng(0), 5
    background = background_pattern(64, 64)
    rows, cols = np.indices((20, 20))
    depth = np.minimum.reduce([rows, 19 - rows, cols, 19 - cols])
    gain = np.where(depth < width, 1.0 - 0.5 * (depth + 1) / (width + 1), 0.5)
    frames, truths, ramps = [], [], []
    for k in range(20):
        pixels = background.copy()
        truth = np.full((64, 64), BACKGROUND, dtype=np.uint8)
        ramp = np.zeros((64, 64), dtype=bool)
        if k >= lead_in:
            shadow = slice(22, 42), slice(2 * k - 6, 2 * k + 14)
            pixels[shadow] *= gain
            truth[shadow] = SHADOW
            ramp[shadow] = depth < width
        pixels += 2.0 * rng.standard_normal(pixels.shape)
        frames.append(np.clip(np.rint(pixels), 0, Y_MAX).astype(np.uint8))
        truths.append(truth)
        ramps.append(ramp)
    state = EngineState.from_static(frames[:lead_in])
    labels = [process_frame(state, frame)[0] for frame in frames[lead_in:]]

    def share(masks):
        pairs = list(zip(labels, masks[lead_in:]))[-SHADOW_FRAMES:]
        hits = sum(np.count_nonzero(lab[mask] == SHADOW) for lab, mask in pairs)
        return hits / max(sum(np.count_nonzero(mask) for _, mask in pairs), 1)

    return share([(truth == SHADOW) & ~ramp for truth, ramp in zip(truths, ramps)]), share(ramps)


def test_hard_shadow_umbra_is_labelled_shadow():
    umbra, _ = soft_shadow_run(0)
    assert umbra >= SHADOW_RECALL, umbra


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: a soft shadow's penumbra is labelled foreground")
@pytest.mark.parametrize("width", [2, 4])
def test_penumbra_is_labelled_shadow(width):
    _, penumbra = soft_shadow_run(width)
    assert penumbra >= PENUMBRA_SHARE, penumbra
