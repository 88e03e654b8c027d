"""Per-pixel mixture-of-Gaussians background maintenance.

Every pixel carries K = 3 weighted Gaussian components (a constant, as in
Stauffer & Grimson, CVPR 1999) summarizing its recent intensity history.
An observation is matched to the component of largest weight/stddev
among those within 3 standard deviations of it, the first index on ties;
the matched component is pulled toward the observation with learning
rate alpha, and when nothing matches the lowest-weight component is
replaced. The component with the largest weight/stddev ratio is the
background hypothesis at that pixel.

:class:`MixtureGrid` applies these rules to every pixel at once, in the
C kernels `mixture_update` and `mixture_select` (`_native.c`, see
`shadowseg._native`). The scalar single-pixel versions in
``tests/oracles.py`` are the reference the kernels match bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from shadowseg import _native

K = 3                   # components per pixel; `#define K` in _native.c
MATCH_SIGMAS = 3.0
INIT_WEIGHT = 0.05      # replacement component weight, pre-normalization
INIT_VARIANCE = 900.0   # replacement / placeholder component variance
VARIANCE_FLOOR = 4.0    # keeps noiseless input from collapsing a component


@dataclass
class BackgroundModel:
    """Per-pixel mean and variance of the selected background component."""

    mean: np.ndarray      # (H, W) float64
    variance: np.ndarray  # (H, W) float64, strictly positive


class MixtureGrid:
    """All per-pixel mixtures of a frame, stored as (K, H, W) arrays."""

    def __init__(self, weights: np.ndarray, means: np.ndarray, variances: np.ndarray):
        # owned C-ordered copies: `update` writes into them in place
        self.weights, self.means, self.variances = (
            np.array(a, dtype=np.float64, order="C") for a in (weights, means, variances))
        if (self.weights.ndim != 3 or self.weights.shape[0] != K
                or not self.weights.shape == self.means.shape == self.variances.shape):
            raise ValueError(f"weights, means and variances must be ({K}, H, W) arrays of "
                             f"one shape, got {self.weights.shape}, {self.means.shape}, "
                             f"{self.variances.shape}")
        # written as `not (...)` so that NaN is rejected too: the kernel and
        # the scalar oracle order a NaN rank weight/stddev differently
        if self.weights.size:
            if not (self.weights.min() >= 0 and self.weights.max() < np.inf):
                raise ValueError("mixture weights must be finite and >= 0")
            if not (self.means.min() > -np.inf and self.means.max() < np.inf):
                raise ValueError("mixture means must be finite")
            if not (self.variances.min() > 0 and self.variances.max() < np.inf):
                raise ValueError("mixture variances must be finite and > 0")

    @classmethod
    def seed(cls, frame: np.ndarray, variance) -> "MixtureGrid":
        """Mixtures for a fresh scene: the first component carries the frame
        at full weight with `variance`, one value or one per pixel; the rest
        are zero-weight placeholders."""
        h, w = frame.shape
        weights = np.zeros((K, h, w))
        weights[0] = 1.0
        means = np.broadcast_to(np.asarray(frame, dtype=np.float64), (K, h, w))
        variances = np.full((K, h, w), INIT_VARIANCE)
        variances[0] = variance
        return cls(weights, means, variances)

    def update(self, frame: np.ndarray, alpha: float) -> None:
        """One recursive history update of every pixel's mixture, in place."""
        if not 0 < alpha <= 1:      # NaN included: the weights could come back NaN
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        frame = np.ascontiguousarray(frame, dtype=np.float64)
        if frame.shape != self.weights.shape[1:]:
            raise ValueError(f"frame shape {frame.shape} does not match mixture shape "
                             f"{self.weights.shape[1:]}")
        address = _native.address
        _native.library().mixture_update(
            address(self.weights), address(self.means), address(self.variances),
            address(frame), frame.size,
            alpha, MATCH_SIGMAS, INIT_WEIGHT, INIT_VARIANCE, VARIANCE_FLOOR)

    def select_background(self) -> BackgroundModel:
        """Per pixel, the component maximizing weight/stddev; ties go to the
        lowest component index. The arrays returned are new."""
        mean = np.empty(self.weights.shape[1:])
        variance = np.empty_like(mean)
        address = _native.address
        _native.library().mixture_select(
            address(self.weights), address(self.means), address(self.variances),
            mean.size, address(mean), address(variance))
        return BackgroundModel(mean, variance)


def noise_variance(frame: np.ndarray) -> float:
    """The variance of the frame's sensor noise, by Immerkaer's estimate
    ("Fast noise variance estimation", CVIU 64(2), 1996), clamped to
    [VARIANCE_FLOOR, INIT_VARIANCE]. The mask [1, -2, 1] x [1, -2, 1]
    cancels the frame's planes and ramps, so mostly the noise is left:
    sigma = sqrt(pi / 2) * sum |I * N| / (6 (W - 2)(H - 2)). The frame must
    be at least 3x3."""
    rows = frame[:-2] - 2.0 * frame[1:-1] + frame[2:]
    masked = rows[:, :-2] - 2.0 * rows[:, 1:-1] + rows[:, 2:]
    total = float(np.abs(masked).sum())
    sigma = math.sqrt(math.pi / 2) * total / (6 * masked.size)   # (H - 2)(W - 2) sites
    variance = sigma * sigma
    return min(max(variance, VARIANCE_FLOOR), INIT_VARIANCE)


def init_static(frames: list[np.ndarray]) -> MixtureGrid:
    """Mixtures bootstrapped from recorded empty-scene frames: the first
    component carries the per-pixel sample mean and unbiased sample
    variance (floored) at full weight."""
    if len(frames) < 2:
        raise ValueError("static bootstrap needs at least 2 frames")
    shape = frames[0].shape
    for f in frames[1:]:
        if f.shape != shape:
            raise ValueError(f"frame dimension mismatch: {f.shape} vs {shape}")
    stack = np.stack([np.asarray(f, dtype=np.float64) for f in frames])
    mean, variance = stack.mean(axis=0), stack.var(axis=0, ddof=1)
    del stack       # freed before the mixtures are built, to lower the peak memory
    return MixtureGrid.seed(mean, np.maximum(variance, VARIANCE_FLOOR, out=variance))
