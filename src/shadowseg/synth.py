"""Synthetic grayscale sequences with pixel-exact ground truth.

A scene is a textured background (a ramp plus a low-amplitude sinusoid,
so edge means are nonzero in both directions), an optional rectangle of
constant intensity moving along a straight line, a shadow rectangle
carried along at a fixed offset from the object, and iid Gaussian pixel
noise. Shadowed pixels take gain*background + offset before noise.

An optional flicker strip at the top of the frame redraws itself from a
wide Gaussian every frame; it stands in for dynamic background (foliage,
monitor flicker) and keeps the engine's pooled detection variance high.
Ground truth follows the masks, not appearance: flicker and camouflage
are still background / foreground.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from shadowseg.energy import BACKGROUND, FOREGROUND, SHADOW
from shadowseg.pgmio import write_labels, write_pgm
from shadowseg.shadow import Y_MAX

RAMP_LOW, RAMP_HIGH = 40.0, 150.0       # background ramp, left to right
TEXTURE_AMP, TEXTURE_PERIOD = 6.0, 16.0
FLICKER_MEAN, FLICKER_SIGMA = 120.0, 25.0


def background_pattern(height: int, width: int) -> np.ndarray:
    """Horizontal ramp with a product-sinusoid texture on top."""
    rows = np.arange(height)[:, None]
    cols = np.arange(width)[None, :]
    ramp = RAMP_LOW + (RAMP_HIGH - RAMP_LOW) * cols / max(width - 1, 1)
    texture = TEXTURE_AMP * np.sin(2.0 * np.pi * rows / TEXTURE_PERIOD) \
                          * np.cos(2.0 * np.pi * cols / TEXTURE_PERIOD)
    return np.broadcast_to(ramp, (height, width)) + texture


@dataclass
class SynthScene:
    height: int = 64
    width: int = 64
    n_frames: int = 20
    lead_in: int = 0                        # object-free frames for bootstrapping
    background: np.ndarray | None = None    # defaults to background_pattern
    object_size: tuple[int, int] = (14, 14)  # (0, 0) removes the object
    object_value: float = 230.0
    shadow_size: tuple[int, int] = (14, 14)
    shadow_offset: tuple[int, int] = (16, 0)  # relative to the object anchor
    start: tuple[int, int] = (6, 4)           # object anchor on the first active frame
    step: tuple[int, int] = (0, 2)            # anchor displacement per frame
    gain: float = 0.6                         # planted shadow transform
    offset: float = 5.0
    noise_sigma: float = 2.0
    flicker_rows: int = 0

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError(f"a scene needs at least 1 frame, got {self.n_frames}")
        if self.lead_in < 0:
            raise ValueError(f"lead-in must be >= 0 frames, got {self.lead_in}")
        if not 0.0 < self.gain <= 1.0:
            raise ValueError(f"planted gain {self.gain} outside (0, 1]")
        if not np.isfinite(self.offset):
            raise ValueError(f"planted offset must be finite, got {self.offset}")
        if not 0.0 <= self.noise_sigma < np.inf:
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.background is None:
            self.background = background_pattern(self.height, self.width)
        self.background = np.asarray(self.background, dtype=np.float64)
        if self.background.shape != (self.height, self.width):
            raise ValueError("background pattern does not match scene dimensions")


def _clamped_rect(anchor_r, anchor_c, size, height, width):
    h, w = size
    r = min(max(anchor_r, 0), max(height - h, 0))
    c = min(max(anchor_c, 0), max(width - w, 0))
    return slice(r, r + h), slice(c, c + w)


def render_scene(scene: SynthScene, seed: int = 0):
    """All frames and ground-truth label maps, in memory.

    Returns (frames, truths): lists of (H, W) uint8 and int label arrays.
    The first `scene.lead_in` frames carry no object and no shadow.
    """
    rng = np.random.default_rng(seed)
    frames, truths = [], []
    for k in range(scene.n_frames):
        pixels = scene.background.copy()
        truth = np.full((scene.height, scene.width), BACKGROUND, dtype=np.int64)
        if scene.flicker_rows > 0:
            noise = rng.standard_normal((scene.flicker_rows, scene.width))
            pixels[:scene.flicker_rows] = FLICKER_MEAN + FLICKER_SIGMA * noise
        active = k - scene.lead_in
        if active >= 0:
            ar = scene.start[0] + active * scene.step[0]
            ac = scene.start[1] + active * scene.step[1]
            if scene.shadow_size[0] > 0 and scene.shadow_size[1] > 0:
                rs, cs = _clamped_rect(ar + scene.shadow_offset[0],
                                       ac + scene.shadow_offset[1],
                                       scene.shadow_size, scene.height, scene.width)
                pixels[rs, cs] = scene.gain * pixels[rs, cs] + scene.offset
                truth[rs, cs] = SHADOW
            if scene.object_size[0] > 0 and scene.object_size[1] > 0:
                rs, cs = _clamped_rect(ar, ac, scene.object_size,
                                       scene.height, scene.width)
                pixels[rs, cs] = scene.object_value
                truth[rs, cs] = FOREGROUND
        if scene.noise_sigma > 0.0:
            pixels = pixels + scene.noise_sigma * rng.standard_normal(pixels.shape)
        pixels = np.clip(np.rint(pixels), 0, Y_MAX).astype(np.uint8)
        frames.append(pixels)
        truths.append(truth)
    return frames, truths


def generate_synthetic(scene: SynthScene, out_dir, seed: int = 0):
    """Render the scene to out_dir/frames and out_dir/truth as PGM files.

    Byte-reproducible for a fixed scene and seed. Returns the two sorted
    path lists (frames, truths).
    """
    frame_dir = os.path.join(out_dir, "frames")
    truth_dir = os.path.join(out_dir, "truth")
    os.makedirs(frame_dir, exist_ok=True)
    os.makedirs(truth_dir, exist_ok=True)
    frames, truths = render_scene(scene, seed=seed)
    frame_paths, truth_paths = [], []
    for k, (pixels, truth) in enumerate(zip(frames, truths), start=1):
        fp = os.path.join(frame_dir, f"frame_{k:04d}.pgm")
        tp = os.path.join(truth_dir, f"truth_{k:04d}.pgm")
        write_pgm(fp, pixels)
        write_labels(truth, tp)
        frame_paths.append(fp)
        truth_paths.append(tp)
    return frame_paths, truth_paths


def scene_preset(name: str, n_frames: int | None = None, gain: float | None = None,
                 offset: float | None = None, noise_sigma: float | None = None) -> SynthScene:
    """Named scenes used by the CLI and the acceptance experiments.

    `recovery`: no object, a large shadow patch sweeping a bright ramp,
    plus a flicker strip that keeps the pooled variance high so the
    shadow transform can adapt from its generic starting point.
    `quality`: moving bright rectangle with an attached shadow cast at
    the transform's starting point, for clean segmentation.
    """
    if name == "recovery":
        kwargs = dict(n_frames=25, lead_in=5,
                      object_size=(0, 0), shadow_size=(40, 32),
                      shadow_offset=(0, 0), start=(18, 0), step=(0, 3),
                      gain=0.6, offset=5.0, noise_sigma=2.0,
                      flicker_rows=16)
    elif name == "quality":
        kwargs = dict(n_frames=25, lead_in=5,
                      object_size=(14, 14), shadow_size=(14, 14), shadow_offset=(16, 0),
                      start=(6, 4), step=(0, 2),
                      gain=0.5, offset=0.0, noise_sigma=2.0)
    else:
        raise ValueError(f"unknown preset {name!r}")
    for key, value in (("n_frames", n_frames), ("gain", gain),
                       ("offset", offset), ("noise_sigma", noise_sigma)):
        if value is not None:
            kwargs[key] = value
    return SynthScene(**kwargs)
