"""Benchmark workloads and their seeded synthetic scenes.

The scenes follow the same model as `shadowseg.synth` (a ramp with a
sinusoid texture, a bright moving rectangle, a shadow rectangle at a
fixed offset, an optional flicker strip, iid Gaussian noise) but are
generated here, so the benchmark's inputs do not change when the library
changes. Every scene is sized so that its object and shadow are still
moving on the last frame: nothing parks at the border and gets absorbed
into the background.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

BACKGROUND, SHADOW, FOREGROUND = 1, 2, 3
LABEL_BYTES = {BACKGROUND: 0, SHADOW: 128, FOREGROUND: 255}
OBJECT_VALUE = 230.0
NOISE_SIGMA = 2.0
FLICKER_MEAN, FLICKER_SIGMA = 120.0, 25.0


@dataclass(frozen=True)
class Scene:
    height: int
    width: int
    n_frames: int
    lead_in: int                 # object-free frames before the object enters
    object_size: tuple[int, int]
    shadow_size: tuple[int, int]
    shadow_offset: tuple[int, int]
    start: tuple[int, int]
    step: tuple[int, int]
    gain: float                  # planted shadow transform
    offset: float
    flicker_rows: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    scene: Scene
    entry: str              # "library": process_frame loop; "cli": shadowseg.cli.main
    bootstrap: str          # "static": lead-in frames; "adaptive": first frame
    n_scored: int           # labeled frames scored for quality, from the first
    alpha: float = 0.02
    lambda1: float = 10.0
    lambda2: float = 4.0

    @property
    def labeled_frames(self) -> int:
        """Frames labeled per episode."""
        lead = self.scene.lead_in if self.bootstrap == "static" else 0
        return self.scene.n_frames - lead


WORKLOADS = {w.name: w for w in (
    # The quality geometry scaled to 320x240, 8 labeled frames; the object
    # could move on until active frame 31 (column 264 of at most 268).
    Workload("qvga_static",
             Scene(height=240, width=320, n_frames=13, lead_in=5,
                   object_size=(52, 52), shadow_size=(52, 52), shadow_offset=(60, 0),
                   start=(24, 16), step=(0, 8), gain=0.5, offset=0.0),
             entry="library", bootstrap="static", n_scored=8),
    # The `quality` preset as `shadowseg segment` sees it by default; the
    # object would park after active frame 23, the sequence ends at 19.
    Workload("cli_adaptive_64",
             Scene(height=64, width=64, n_frames=25, lead_in=5,
                   object_size=(14, 14), shadow_size=(14, 14), shadow_offset=(16, 0),
                   start=(6, 4), step=(0, 2), gain=0.5, offset=0.0),
             entry="cli", bootstrap="adaptive", n_scored=25),
    # The `recovery` preset with criterion-6 settings, cut at active frame
    # 10, the last one before the shadow patch reaches the border.
    Workload("recovery_flicker_64",
             Scene(height=64, width=64, n_frames=16, lead_in=5,
                   object_size=(0, 0), shadow_size=(40, 32), shadow_offset=(0, 0),
                   start=(18, 0), step=(0, 3), gain=0.6, offset=5.0, flicker_rows=16),
             entry="library", bootstrap="static", n_scored=11,
             alpha=0.3, lambda1=2.0, lambda2=0.5),
)}


def _rect(anchor_r, anchor_c, size, height, width):
    h, w = size
    if not (0 <= anchor_r <= height - h and 0 <= anchor_c <= width - w):
        raise ValueError(f"rectangle at ({anchor_r}, {anchor_c}) leaves the frame")
    return slice(anchor_r, anchor_r + h), slice(anchor_c, anchor_c + w)


def render(scene: Scene, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(frames, truths): (N, H, W) uint8 intensities and int8 labels."""
    rng = np.random.default_rng(seed)
    rows = np.arange(scene.height)[:, None]
    cols = np.arange(scene.width)[None, :]
    pattern = (40.0 + 110.0 * cols / (scene.width - 1)
               + 6.0 * np.sin(2.0 * np.pi * rows / 16.0) * np.cos(2.0 * np.pi * cols / 16.0))
    frames = np.empty((scene.n_frames, scene.height, scene.width), dtype=np.uint8)
    truths = np.full(frames.shape, BACKGROUND, dtype=np.int8)
    for k in range(scene.n_frames):
        pixels = pattern.copy()
        if scene.flicker_rows:
            pixels[:scene.flicker_rows] = FLICKER_MEAN + FLICKER_SIGMA \
                * rng.standard_normal((scene.flicker_rows, scene.width))
        active = k - scene.lead_in
        if active >= 0:
            ar = scene.start[0] + active * scene.step[0]
            ac = scene.start[1] + active * scene.step[1]
            if min(scene.shadow_size) > 0:
                rs, cs = _rect(ar + scene.shadow_offset[0], ac + scene.shadow_offset[1],
                               scene.shadow_size, scene.height, scene.width)
                pixels[rs, cs] = scene.gain * pixels[rs, cs] + scene.offset
                truths[k, rs, cs] = SHADOW
            if min(scene.object_size) > 0:
                rs, cs = _rect(ar, ac, scene.object_size, scene.height, scene.width)
                pixels[rs, cs] = OBJECT_VALUE
                truths[k, rs, cs] = FOREGROUND
        pixels += NOISE_SIGMA * rng.standard_normal(pixels.shape)
        frames[k] = np.clip(np.rint(pixels), 0, 255)
    return frames, truths


def write_pgm(path, pixels: np.ndarray) -> None:
    height, width = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def write_sequence(frames: np.ndarray, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    for k, pixels in enumerate(frames, start=1):
        write_pgm(os.path.join(directory, f"frame_{k:04d}.pgm"), pixels)


def read_label_pgm(path) -> np.ndarray:
    """Label map written by `shadowseg segment`, decoded to {1, 2, 3}.

    Any other byte value decodes to 0, which the output check rejects.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    fields = data.split(maxsplit=4)
    if len(fields) < 5 or fields[0] != b"P5" or fields[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    width, height = int(fields[1]), int(fields[2])
    raster = np.frombuffer(data[len(data) - width * height:], dtype=np.uint8)
    labels = np.zeros(raster.shape, dtype=np.int8)
    for label, byte in LABEL_BYTES.items():
        labels[raster == byte] = label
    return labels.reshape(height, width)
