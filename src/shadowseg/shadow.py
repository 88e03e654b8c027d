"""Global linear shadow transform and its per-frame adaptation.

A shadowed pixel is modeled as a gain/offset transform of the lit
background intensity. After each segmented frame the transform is refit
by least squares over the shadow-labeled pixels and blended into the
running estimate with an effective rate proportional to the shadowed
fraction of the scene, so sparse-shadow frames barely move it. A refit needs
MIN_SHADOW_PIXELS pairs, and the offset stays within [-Y_MAX, Y_MAX].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GAIN_MIN = 0.1          # shadows darken; unclamped sparse fits destabilize the likelihood
GAIN_MAX = 1.0
MIN_SHADOW_PIXELS = 20  # below this, keep previous parameters instead of refitting
DEGENERATE_EPS = 1e-9   # of n * sum(b * b): below it, the background values are equal
# top of the intensity scale, fixed because frames must use maxval 255; a
# float, so that the offset stays a float where the clamp applies
Y_MAX = 255.0


@dataclass(frozen=True)
class ShadowParams:
    gain: float
    offset: float


def initial_shadow_params() -> ShadowParams:
    return ShadowParams(gain=0.5, offset=0.0)


def fit_shadow(observed, background) -> tuple[float, float] | None:
    """Closed-form least-squares gain/offset for observed = gain*background + offset.

    Returns None for fewer than MIN_SHADOW_PIXELS pairs or for a
    degenerate design (all background values equal, up to the rounding
    residue their sums leave in the determinant).
    """
    g = np.asarray(observed, dtype=np.float64).ravel()
    b = np.asarray(background, dtype=np.float64).ravel()
    if g.shape != b.shape:
        raise ValueError("observed and background must pair up")
    n = g.size
    if n < MIN_SHADOW_PIXELS:
        return None
    sum_g = float(g.sum())
    sum_b = float(b.sum())
    sum_gb = float((g * b).sum())
    sum_bb = float((b * b).sum())
    denom = sum_b * sum_b - n * sum_bb
    if abs(denom) <= DEGENERATE_EPS * n * sum_bb:
        return None
    gain = (sum_g * sum_b - n * sum_gb) / denom
    offset = (sum_g - gain * sum_b) / n
    return gain, offset


def update_shadow(params: ShadowParams, fit: tuple[float, float],
                  shadow_fraction: float, alpha: float) -> ShadowParams:
    """Blend a fresh fit into the running transform.

    `shadow_fraction` is the fraction of shadow-labeled pixels, in [0, 1];
    the effective learning rate is `shadow_fraction * alpha`. The result is
    clamped to the admissible gain/offset box.
    """
    gain_fit, offset_fit = fit
    keep = 1.0 - shadow_fraction * alpha
    blend = shadow_fraction * alpha
    gain = keep * params.gain + blend * gain_fit
    offset = keep * params.offset + blend * offset_fit
    gain = min(max(gain, GAIN_MIN), GAIN_MAX)
    offset = min(max(offset, -Y_MAX), Y_MAX)
    return ShadowParams(gain, offset)
