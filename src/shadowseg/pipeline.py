"""Per-frame orchestration of detection and model maintenance.

Each frame is labeled against the models as they stood after the
previous frame, then every model is updated: label bias from the fresh
counts, shadow transform from the shadow-labeled pixels, per-pixel
mixtures from the raw intensities, and the background summary from the
updated mixtures.

The edge model is derived from the background where detection reads
it: its means are the central differences of the background means
(`background_edge_model`), and the per-pixel background variances are
replaced by their scene-wide mean (one pooled value for intensities,
twice that for each edge component); the per-pixel values are kept for
the mixture updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from shadowseg.background import BackgroundModel, MixtureGrid, init_static
from shadowseg.edge import background_edge_model, frame_edges
from shadowseg.energy import (BACKGROUND, FOREGROUND, LAMBDA1_DEFAULT,
                              LAMBDA2_DEFAULT, PriorParams, SHADOW,
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
        """Adaptive bootstrap: seed every mixture from a single frame."""
        config = config or EngineConfig()
        mixtures = MixtureGrid.seed(_checked_frame(frame))
        return cls._assemble(mixtures, config)

    @classmethod
    def _assemble(cls, mixtures: MixtureGrid, config: EngineConfig) -> "EngineState":
        return cls(mixtures=mixtures,
                   background=mixtures.select_background(),
                   shadow=initial_shadow_params(),
                   prior=initial_prior(lambda1=config.lambda1, lambda2=config.lambda2),
                   config=config)


def _checked_frame(frame, shape=None) -> np.ndarray:
    """`frame` as float64; rejects a frame smaller than 3x3, NaN or infinite
    pixels and, when `shape` is given, a frame of any other shape."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.ndim != 2 or min(frame.shape) < 3:
        raise ValueError("frame must be at least 3x3")
    if not np.isfinite(frame).all():
        raise ValueError("frame has NaN or infinite pixels")
    if shape is not None and frame.shape != shape:
        raise ValueError(f"frame shape {frame.shape} does not match model shape {shape}")
    return frame


def pooled_variance(bg: BackgroundModel) -> float:
    """Scene-wide mean of the per-pixel background variances."""
    return float(np.mean(bg.variance))


def detection_potentials(state: EngineState, frame) -> tuple[np.ndarray, np.ndarray]:
    """Intensity and edge potential tables, (3, H, W) each, that label
    `frame` against the models as they stand.

    The background edge means are built here from the background means.
    The per-pixel background variances are pooled into one scene-wide
    value, and each edge component gets twice that value.
    """
    frame = _checked_frame(frame, state.background.mean.shape)
    edge_h, edge_v = frame_edges(frame)
    mean_h, mean_v = background_edge_model(state.background)
    return build_potential_tables(frame, edge_h, edge_v, state.background.mean,
                                  mean_h, mean_v, pooled_variance(state.background),
                                  state.shadow, Y_MAX)


def process_frame(state: EngineState, frame) -> tuple[np.ndarray, FrameDiagnostics]:
    """Label one frame and fold it into every model. Mutates `state`.

    Returns the committed label field and the per-frame diagnostics; the
    reported gain/offset are the values carried into the next frame.
    """
    frame = _checked_frame(frame, state.background.mean.shape)
    cfg = state.config

    u1, u2 = detection_potentials(state, frame)
    result = hcf_minimize(u1, u2, state.prior)
    labels = result.labels

    counts = np.array([np.count_nonzero(labels == lab)
                       for lab in (BACKGROUND, SHADOW, FOREGROUND)], dtype=np.float64)
    state.prior = update_label_bias(state.prior, counts, cfg.alpha)

    shadow_mask = labels == SHADOW
    fit = fit_shadow(frame[shadow_mask], state.background.mean[shadow_mask])
    if fit is not None:
        frac = counts[1] / labels.size
        state.shadow = update_shadow(state.shadow, fit, -frac, cfg.alpha)

    state.mixtures.update(frame, cfg.alpha)
    state.background = state.mixtures.select_background()
    state.k += 1

    diag = FrameDiagnostics(k=state.k, energy=result.energy,
                            n_background=int(counts[0]), n_shadow=int(counts[1]),
                            n_foreground=int(counts[2]),
                            gain=state.shadow.gain, offset=state.shadow.offset,
                            visits=result.visits)
    return labels, diag
