"""Per-frame orchestration of detection and model maintenance.

Each frame is labeled against the models as they stood after the
previous frame, then every model is updated: label bias from the fresh
counts, shadow transform from the shadow-labeled pixels, per-pixel
mixtures from the raw intensities, and the background / edge summaries
from the updated mixtures.

During detection the per-pixel background variances are replaced by
their scene-wide mean (one pooled value for intensities, twice that for
each edge component); the per-pixel values are kept for the mixture
updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from shadowseg.background import BackgroundModel, K_DEFAULT, MixtureGrid, init_static
from shadowseg.edge import EdgeModel, background_edge_model, frame_edges
from shadowseg.energy import (BACKGROUND, FOREGROUND, LAMBDA1_DEFAULT,
                              LAMBDA2_DEFAULT, PriorParams, SHADOW,
                              initial_prior, update_label_bias)
from shadowseg.likelihood import build_potential_tables
from shadowseg.optimizer import hcf_minimize
from shadowseg.shadow import ShadowParams, fit_shadow, initial_shadow_params, update_shadow


@dataclass
class EngineConfig:
    k_gaussians: int = K_DEFAULT
    alpha: float = 0.02
    lambda1: float = LAMBDA1_DEFAULT
    lambda2: float = LAMBDA2_DEFAULT
    y_max: float = 255.0

    def __post_init__(self):
        # written as `not (...)` so that NaN settings are rejected too
        if not 3 <= self.k_gaussians <= 5:
            raise ValueError(f"k_gaussians must be 3 to 5, got {self.k_gaussians}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not self.lambda1 >= 0:
            raise ValueError(f"lambda1 must be >= 0, got {self.lambda1}")
        if not self.lambda2 >= 0:
            raise ValueError(f"lambda2 must be >= 0, got {self.lambda2}")
        if not self.y_max > 0:
            raise ValueError(f"y_max must be > 0, got {self.y_max}")


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
    edges: EdgeModel
    shadow: ShadowParams
    prior: PriorParams
    config: EngineConfig = field(default_factory=EngineConfig)
    k: int = 0

    @classmethod
    def from_static(cls, frames, config: EngineConfig | None = None) -> "EngineState":
        """Bootstrap from two or more frames of the empty scene."""
        config = config or EngineConfig()
        _, mixtures = init_static([_checked_frame(f) for f in frames], k=config.k_gaussians)
        return cls._assemble(mixtures, config)

    @classmethod
    def from_first_frame(cls, frame, config: EngineConfig | None = None) -> "EngineState":
        """Adaptive bootstrap: seed every mixture from a single frame."""
        config = config or EngineConfig()
        mixtures = MixtureGrid.seed(_checked_frame(frame), k=config.k_gaussians)
        return cls._assemble(mixtures, config)

    @classmethod
    def _assemble(cls, mixtures: MixtureGrid, config: EngineConfig) -> "EngineState":
        background = mixtures.select_background()
        return cls(mixtures=mixtures,
                   background=background,
                   edges=background_edge_model(background),
                   shadow=initial_shadow_params(),
                   prior=initial_prior(lambda1=config.lambda1, lambda2=config.lambda2),
                   config=config)


def _checked_frame(frame, shape=None) -> np.ndarray:
    """`frame` as float64; rejects NaN or infinite pixels and, when `shape`
    is given, a frame of any other shape."""
    frame = np.asarray(frame, dtype=np.float64)
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

    The per-pixel background variances are pooled into one scene-wide
    value, and each edge component gets twice that value.
    """
    frame = _checked_frame(frame, state.background.mean.shape)
    edge_h, edge_v = frame_edges(frame)
    pooled = pooled_variance(state.background)
    flat = np.full_like(state.background.mean, 2.0 * pooled)
    detection_edges = EdgeModel(mean_h=state.edges.mean_h, mean_v=state.edges.mean_v,
                                var_h=flat, var_v=flat)
    return build_potential_tables(frame, edge_h, edge_v,
                                  state.background.mean, pooled,
                                  detection_edges, state.shadow, state.config.y_max)


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
        state.shadow = update_shadow(state.shadow, fit, -frac, cfg.alpha, cfg.y_max)

    state.mixtures.update(frame, cfg.alpha)
    state.background = state.mixtures.select_background()
    state.edges = background_edge_model(state.background)
    state.k += 1

    diag = FrameDiagnostics(k=state.k, energy=result.energy,
                            n_background=int(counts[0]), n_shadow=int(counts[1]),
                            n_foreground=int(counts[2]),
                            gain=state.shadow.gain, offset=state.shadow.offset,
                            visits=result.visits)
    return labels, diag
