"""Per-pixel mixture-of-Gaussians background maintenance.

Every pixel carries K weighted Gaussian components summarizing its recent
intensity history.  An observation is matched to the component of largest
weight/stddev among those within 3 standard deviations of it, the first
index on ties; the matched component is pulled toward the observation
with learning rate alpha, and when nothing matches the lowest-weight
component is replaced.  The component with the largest weight/stddev
ratio is the background hypothesis at that pixel.

:class:`MixtureGrid` applies these rules to every pixel at once, in the
C kernels `mixture_update` and `mixture_select` (`_native.c`, see
`shadowseg._native`). The scalar single-pixel versions in
``tests/oracles.py`` are the reference the kernels match bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from shadowseg import _native

K_DEFAULT = 3
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
        self.weights = np.array(weights, dtype=np.float64, order="C")
        self.means = np.array(means, dtype=np.float64, order="C")
        self.variances = np.array(variances, dtype=np.float64, order="C")
        if self.weights.ndim != 3 or not (self.weights.shape == self.means.shape
                                          == self.variances.shape):
            raise ValueError("weights, means and variances must be (K, H, W) arrays of "
                             f"one shape, got {self.weights.shape}, {self.means.shape}, "
                             f"{self.variances.shape}")
        self.k = self.weights.shape[0]

    @classmethod
    def seed(cls, frame: np.ndarray, k: int = K_DEFAULT) -> "MixtureGrid":
        """Mixtures for a fresh scene: the first component carries the frame
        at full weight, the rest are zero-weight placeholders."""
        h, w = frame.shape
        weights = np.zeros((k, h, w))
        weights[0] = 1.0
        means = np.broadcast_to(np.asarray(frame, dtype=np.float64), (k, h, w))
        variances = np.full((k, h, w), INIT_VARIANCE)
        return cls(weights, means, variances)

    def update(self, frame: np.ndarray, alpha: float) -> None:
        """One recursive history update of every pixel's mixture, in place."""
        frame = np.ascontiguousarray(frame, dtype=np.float64)
        if frame.shape != self.weights.shape[1:]:
            raise ValueError(f"frame shape {frame.shape} does not match mixture shape "
                             f"{self.weights.shape[1:]}")
        _native.library().mixture_update(
            self.weights.ctypes.data, self.means.ctypes.data, self.variances.ctypes.data,
            frame.ctypes.data, self.k, frame.size,
            alpha, MATCH_SIGMAS, INIT_WEIGHT, INIT_VARIANCE, VARIANCE_FLOOR)

    def select_background(self) -> BackgroundModel:
        """Per pixel, the component maximizing weight/stddev; ties go to the
        lowest component index. The arrays returned are new."""
        mean = np.empty(self.weights.shape[1:])
        variance = np.empty_like(mean)
        _native.library().mixture_select(
            self.weights.ctypes.data, self.means.ctypes.data, self.variances.ctypes.data,
            self.k, mean.size, mean.ctypes.data, variance.ctypes.data)
        return BackgroundModel(mean, variance)


def init_static(frames: list[np.ndarray], k: int = K_DEFAULT) -> MixtureGrid:
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
    mixtures = MixtureGrid.seed(stack.mean(axis=0), k)
    mixtures.variances[0] = np.maximum(stack.var(axis=0, ddof=1), VARIANCE_FLOOR)
    return mixtures
