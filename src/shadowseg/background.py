"""Per-pixel mixture-of-Gaussians background maintenance.

Every pixel carries K weighted Gaussian components summarizing its recent
intensity history.  An observation is matched to the first component (in
descending weight/stddev order) within 3 standard deviations; the matched
component is pulled toward the observation with learning rate alpha, and
when nothing matches the lowest-weight component is replaced.  The
component with the largest weight/stddev ratio is the background
hypothesis at that pixel.

:class:`MixtureGrid` applies these rules to every pixel at once; the
scalar single-pixel versions in ``tests/oracles.py`` are the reference it
is tested against bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        self.weights = np.asarray(weights, dtype=np.float64)
        self.means = np.asarray(means, dtype=np.float64)
        self.variances = np.asarray(variances, dtype=np.float64)
        self.k = self.weights.shape[0]

    @classmethod
    def seed(cls, frame: np.ndarray, k: int = K_DEFAULT) -> "MixtureGrid":
        """Mixtures for a fresh scene: the first component carries the frame
        at full weight, the rest are zero-weight placeholders."""
        h, w = frame.shape
        weights = np.zeros((k, h, w))
        weights[0] = 1.0
        means = np.broadcast_to(np.asarray(frame, dtype=np.float64), (k, h, w)).copy()
        variances = np.full((k, h, w), INIT_VARIANCE)
        return cls(weights, means, variances)

    def update(self, frame: np.ndarray, alpha: float) -> None:
        """One recursive history update of every pixel's mixture."""
        g = np.asarray(frame, dtype=np.float64)[None]          # (1, H, W)
        w, mu, var = self.weights, self.means, self.variances
        sigma = np.sqrt(var)
        order = np.argsort(-(w / sigma), axis=0, kind="stable")
        near = np.abs(g - np.take_along_axis(mu, order, 0)) <= MATCH_SIGMAS * np.take_along_axis(sigma, order, 0)
        any_match = near.any(axis=0)
        comp = np.take_along_axis(order, near.argmax(axis=0)[None], 0)[0]

        lanes = np.arange(self.k)[:, None, None]
        upd = (comp[None] == lanes) & any_match[None]
        diff = g - mu
        w_new = np.where(upd, (1.0 - alpha) * w + alpha, w)
        mu_new = np.where(upd, (1.0 - alpha) * mu + alpha * g, mu)
        var_new = np.where(upd,
                           np.maximum((1.0 - alpha) * var + alpha * diff * diff, VARIANCE_FLOOR),
                           var)

        repl = (w.argmin(axis=0)[None] == lanes) & ~any_match[None]
        w_new = np.where(repl, INIT_WEIGHT, w_new)
        mu_new = np.where(repl, g, mu_new)
        var_new = np.where(repl, INIT_VARIANCE, var_new)

        self.weights = w_new / w_new.sum(axis=0, keepdims=True)
        self.means = mu_new
        self.variances = var_new

    def select_background(self) -> BackgroundModel:
        """Per pixel, the component maximizing weight/stddev; ties go to the
        lowest component index."""
        best = np.argmax(self.weights / np.sqrt(self.variances), axis=0)
        mean = np.take_along_axis(self.means, best[None], 0)[0]
        variance = np.take_along_axis(self.variances, best[None], 0)[0]
        return BackgroundModel(mean.copy(), variance.copy())


def init_static(frames: list[np.ndarray], k: int = K_DEFAULT) -> tuple[BackgroundModel, MixtureGrid]:
    """Bootstrap from recorded empty-scene frames: per-pixel sample mean and
    unbiased sample variance (floored), mixtures seeded with the background
    component at full weight."""
    if len(frames) < 2:
        raise ValueError("static bootstrap needs at least 2 frames")
    shape = frames[0].shape
    for f in frames[1:]:
        if f.shape != shape:
            raise ValueError(f"frame dimension mismatch: {f.shape} vs {shape}")
    stack = np.stack([np.asarray(f, dtype=np.float64) for f in frames])
    mean = stack.mean(axis=0)
    variance = np.maximum(stack.var(axis=0, ddof=1), VARIANCE_FLOOR)

    mixtures = MixtureGrid.seed(mean, k)
    mixtures.variances[0] = variance
    return BackgroundModel(mean, variance), mixtures
