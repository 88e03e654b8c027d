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
`shadowseg._native`). `MixtureGrid.update` runs the two on one helper
thread and returns before they end, so that the caller can label the
frame meanwhile; every read of the grid waits for that thread first. The
scalar single-pixel versions in ``tests/oracles.py`` are the reference
the kernels match bit for bit.
"""

from __future__ import annotations

import ctypes
import math
import os
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
    """All per-pixel mixtures of a frame, stored as (K, H, W) arrays.

    `update` runs on a helper thread and returns before it ends; reading
    `weights`, `means` or `variances`, `select_background`, the next
    `update`, a copy and the grid's own end all wait for it first.
    """

    _step = None    # (library, step memory, frame, background) of a running update

    def __init__(self, weights: np.ndarray, means: np.ndarray, variances: np.ndarray):
        # owned C-ordered copies: `update` writes into them in place
        weights, means, variances = self._arrays = tuple(
            np.array(a, dtype=np.float64, order="C") for a in (weights, means, variances))
        if (weights.ndim != 3 or weights.shape[0] != K
                or not weights.shape == means.shape == variances.shape):
            raise ValueError(f"weights, means and variances must be ({K}, H, W) arrays of "
                             f"one shape, got {weights.shape}, {means.shape}, "
                             f"{variances.shape}")
        # written as `not (...)` so that NaN is rejected too: the kernel and
        # the scalar oracle order a NaN rank weight/stddev differently
        if weights.size:
            if not (weights.min() >= 0 and weights.max() < np.inf):
                raise ValueError("mixture weights must be finite and >= 0")
            if not (means.min() > -np.inf and means.max() < np.inf):
                raise ValueError("mixture means must be finite")
            if not (variances.min() > 0 and variances.max() < np.inf):
                raise ValueError("mixture variances must be finite and > 0")

    def __del__(self):
        # the helper thread writes into the arrays until it is joined
        self._join()

    def __getstate__(self):
        self._join()
        return vars(self)

    @property
    def weights(self) -> np.ndarray:
        self._join()
        return self._arrays[0]

    @property
    def means(self) -> np.ndarray:
        self._join()
        return self._arrays[1]

    @property
    def variances(self) -> np.ndarray:
        self._join()
        return self._arrays[2]

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
        """Start one recursive history update of every pixel's mixture, in
        place, then the selection of the background from the updated
        mixtures, on one helper thread, and return before they end;
        `select_background` returns that selection. The thread reads
        `frame` until it ends, so nothing may write to the frame before
        the grid is read. OSError when the thread cannot start, with
        nothing updated."""
        if not 0 < alpha <= 1:      # NaN included: the weights could come back NaN
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        frame = np.ascontiguousarray(frame, dtype=np.float64)
        self._join()
        weights, means, variances = self._arrays
        if frame.shape != weights.shape[1:]:
            raise ValueError(f"frame shape {frame.shape} does not match mixture shape "
                             f"{weights.shape[1:]}")
        background = BackgroundModel(np.empty(frame.shape), np.empty(frame.shape))
        library = _native.library()
        step = ctypes.create_string_buffer(
            ctypes.c_int64.in_dll(library, "mixture_step_bytes").value)
        address = _native.address
        _checked(library.mixture_start(
            step, address(weights), address(means), address(variances),
            address(frame), frame.size,
            alpha, MATCH_SIGMAS, INIT_WEIGHT, INIT_VARIANCE, VARIANCE_FLOOR,
            address(background.mean), address(background.variance)))
        self._step = (library, step, frame, background)

    def select_background(self) -> BackgroundModel:
        """Per pixel, the component maximizing weight/stddev; ties go to the
        lowest component index. After `update`, the selection its helper
        thread made, once that has ended; with no update running (as at
        a bootstrap, or once the arrays have been read), one made now. The
        arrays returned are new."""
        background = self._join()
        if background is not None:
            return background
        weights, means, variances = self._arrays
        mean = np.empty(weights.shape[1:])
        variance = np.empty_like(mean)
        address = _native.address
        _native.library().mixture_select(
            address(weights), address(means), address(variances),
            mean.size, address(mean), address(variance))
        return BackgroundModel(mean, variance)

    def _join(self) -> BackgroundModel | None:
        """Wait for the running update, if any; the background it selected,
        or None when none was running."""
        if self._step is None:
            return None
        library, step, _, background = self._step
        # no call between these two lines, so no signal handler can run
        # between them and leave the thread unjoined
        self._step = None
        _checked(library.mixture_join(step))
        return background


def _checked(error: int) -> None:
    """OSError for a nonzero error number a thread call returned."""
    if error:
        raise OSError(error, os.strerror(error))


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
