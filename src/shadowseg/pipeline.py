"""Per-frame orchestration of detection and model maintenance.

Each frame is labeled against the models as they stood after the
previous frame, and every model takes the frame. The per-pixel mixtures
read only the raw intensities, so once the frame's potential tables are
built, a helper thread updates them and selects the next background
from them while the HCF sweep labels the frame. Then the label bias
takes the fresh counts and the shadow transform the shadow-labeled
pixels, fitted against the background the frame was labeled with, and
the helper is joined.

The edge model is derived from the background where detection reads
it: its means are the central differences of the background means
(`background_edge_model`), and the per-pixel background variances are
replaced by their scene-wide mean (one pooled value for intensities,
twice that for each edge component); the per-pixel values are kept for
the mixture updates. The tables are built in `process_frame` alone, which
hands them to an optional `dump` hook before labeling them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from shadowseg.background import BackgroundModel, MixtureGrid, init_static, noise_variance
from shadowseg.edge import background_edge_model, frame_edges
from shadowseg.energy import (LAMBDA1_DEFAULT, LAMBDA2_DEFAULT, SHADOW, PriorParams,
                              initial_prior, update_label_bias)
from shadowseg.likelihood import build_potential_tables
from shadowseg.optimizer import hcf_minimize
from shadowseg.shadow import (Y_MAX, ShadowParams, fit_shadow, initial_shadow_params,
                              update_shadow)


@dataclass
class EngineConfig:
    alpha: float = 0.02
    lambda1: float = LAMBDA1_DEFAULT
    lambda2: float = LAMBDA2_DEFAULT

    def __post_init__(self):
        # written as `not (...)` so that NaN settings are rejected too
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0 <= self.lambda1 < np.inf:
            raise ValueError(f"lambda1 must be finite and >= 0, got {self.lambda1}")
        if not 0 <= self.lambda2 < np.inf:
            raise ValueError(f"lambda2 must be finite and >= 0, got {self.lambda2}")


@dataclass
class FrameDiagnostics:
    k: int                  # index of the processed frame (1-based)
    energy: float           # posterior energy of the MAP labeling
    n_background: int
    n_shadow: int
    n_foreground: int
    gain: float             # shadow transform after this frame's update
    offset: float
    visits: int             # optimizer site visits


@dataclass
class EngineState:
    mixtures: MixtureGrid
    background: BackgroundModel
    shadow: ShadowParams
    prior: PriorParams
    config: EngineConfig = field(default_factory=EngineConfig)
    k: int = 0

    @classmethod
    def from_static(cls, frames, config: EngineConfig | None = None) -> "EngineState":
        """Bootstrap from two or more frames of the empty scene."""
        config = config or EngineConfig()
        mixtures = init_static([_checked_frame(f) for f in frames])
        return cls._assemble(mixtures, config)

    @classmethod
    def from_first_frame(cls, frame, config: EngineConfig | None = None) -> "EngineState":
        """Adaptive bootstrap: seed every mixture from a single frame, with
        the frame's noise variance as the seed variance. Under the wider
        INIT_VARIANCE the smoothness prior, not the data, would label the
        first object frame, and flood it with foreground."""
        config = config or EngineConfig()
        frame = _checked_frame(frame)
        mixtures = MixtureGrid.seed(frame, noise_variance(frame))
        return cls._assemble(mixtures, config)

    @classmethod
    def _assemble(cls, mixtures: MixtureGrid, config: EngineConfig) -> "EngineState":
        return cls(mixtures=mixtures,
                   background=mixtures.select_background(),
                   shadow=initial_shadow_params(),
                   prior=initial_prior(lambda1=config.lambda1, lambda2=config.lambda2),
                   config=config)


def _checked_frame(frame, shape=None) -> np.ndarray:
    """`frame` as float64; rejects a frame of other than real numbers or
    smaller than 3x3, pixels outside the 0..Y_MAX scale (NaN and infinite
    ones included) and, when `shape` is given, a frame of any other shape."""
    raw = np.asarray(frame)
    if raw.dtype.kind not in "biuf":    # a complex frame would lose its imaginary part
        raise ValueError(f"frame must hold real numbers, got dtype {raw.dtype}")
    frame = raw.astype(np.float64, copy=False)
    if frame.ndim != 2 or min(frame.shape) < 3:
        raise ValueError("frame must be at least 3x3")
    # uint8 pixels, as PGM input holds, are in range; written as `not` so
    # that a NaN fails the check too
    if raw.dtype != np.uint8 and not (frame.min() >= 0 and frame.max() <= Y_MAX):
        raise ValueError(f"frame has NaN or infinite pixels, or pixels outside [0, {Y_MAX:g}]")
    if shape is not None and frame.shape != shape:
        raise ValueError(f"frame shape {frame.shape} does not match model shape {shape}")
    return frame


def pooled_variance(bg: BackgroundModel) -> float:
    """Scene-wide mean of the per-pixel background variances: numpy's
    pairwise sum over the count, the two operations of `np.mean`."""
    return float(bg.variance.sum()) / bg.variance.size


def process_frame(state: EngineState, frame, dump=None) -> tuple[np.ndarray, FrameDiagnostics]:
    """Label one frame and fold it into every model. Mutates `state`.

    Returns the committed labels, an (H, W) uint8 array of values 1, 2
    and 3, and the per-frame diagnostics; the reported gain/offset are
    the values carried into the next frame.
    `dump`, when given, is called as `dump(u1, u2)` with the intensity and
    edge potential tables, (3, H, W) each, before they are labeled.

    The mixtures take the frame on a helper thread while it is labeled
    (`MixtureGrid.update`), and are joined before this returns. When the
    labeling or a model update raises, the helper is joined before the
    exception leaves, and the background, prior, shadow and frame count
    of `state` stay as they were, but its mixtures have taken the frame.
    """
    bg = state.background       # detection and the shadow fit read this one
    frame = _checked_frame(frame, bg.mean.shape)
    cfg = state.config

    # the edge grids are call arguments, not locals, so that they are
    # freed before the sweep allocates its work arrays
    u1, u2 = build_potential_tables(frame, *frame_edges(frame), bg.mean,
                                    *background_edge_model(bg), pooled_variance(bg),
                                    state.shadow)
    if dump is not None:
        dump(u1, u2)
    state.mixtures.update(frame, cfg.alpha)
    try:
        result = hcf_minimize(u1, u2, state.prior)
        labels, counts = result.labels, result.label_counts
        prior = update_label_bias(state.prior, counts, cfg.alpha)

        shadow = state.shadow
        shadow_mask = labels == SHADOW
        fit = fit_shadow(frame[shadow_mask], bg.mean[shadow_mask])
        if fit is not None:
            shadow = update_shadow(shadow, fit, counts[1] / labels.size, cfg.alpha)
    finally:
        background = state.mixtures.select_background()
    state.background, state.prior, state.shadow = background, prior, shadow
    state.k += 1

    diag = FrameDiagnostics(k=state.k, energy=result.energy,
                            n_background=counts[0], n_shadow=counts[1], n_foreground=counts[2],
                            gain=shadow.gain, offset=shadow.offset,
                            visits=result.visits)
    return labels, diag
