"""Linear shadow transform: closed-form fit, degenerate guards, and the
frequency-weighted blend update."""

import math
from fractions import Fraction

import numpy as np
import pytest

from shadowseg.shadow import (GAIN_MAX, GAIN_MIN, MIN_SHADOW_PIXELS, ShadowParams,
                              fit_shadow, initial_shadow_params, update_shadow)


def normal_equations_oracle(g, b):
    """Exact rational least squares for g = a*b + c."""
    n = len(b)
    sb = sum(Fraction(x) for x in b)
    sg = sum(Fraction(x) for x in g)
    sbb = sum(Fraction(x) * Fraction(x) for x in b)
    sgb = sum(Fraction(x) * Fraction(y) for x, y in zip(g, b))
    denom = n * sbb - sb * sb
    a = (n * sgb - sg * sb) / denom
    c = (sg - a * sb) / n
    return float(a), float(c)


def test_initial_parameters():
    params = initial_shadow_params()
    assert params.gain == 0.5
    assert params.offset == 0.0


def test_exact_fit_recovers_planted_line():
    b = np.linspace(50, 200, 40)
    g = 0.5 * b + 10.0
    fit = fit_shadow(g, b)
    assert fit is not None
    assert abs(fit[0] - 0.5) <= 1e-9
    assert abs(fit[1] - 10.0) <= 1e-9


def test_too_few_pairs_returns_none():
    b = np.linspace(50, 200, MIN_SHADOW_PIXELS - 1)
    assert fit_shadow(0.5 * b, b) is None
    b = np.linspace(50, 200, MIN_SHADOW_PIXELS)
    assert fit_shadow(0.5 * b, b) is not None


@pytest.mark.parametrize("n", [50, 1_000, 50_000])
@pytest.mark.parametrize("value", [120.0, 100.1, 37.3, 201.7, 0.0])
def test_degenerate_design_returns_none(value, n):
    # equal background values that do not sum exactly leave a rounding
    # residue in the determinant; noise in the observations must not turn
    # it into a gain
    rng = np.random.default_rng(int(value * 10) + n)
    b = np.full(n, value)
    g = 0.5 * b + 3.0 + rng.normal(0.0, 2.0, size=n)
    assert fit_shadow(g, b) is None


def test_mismatched_pair_shapes_raise():
    with pytest.raises(ValueError):
        fit_shadow(np.zeros(30), np.zeros(29))


def test_noisy_fit_near_planted_parameters():
    rng = np.random.default_rng(8)
    b = rng.uniform(50, 200, size=500)
    g = 0.6 * b + 5.0 + rng.normal(0, 2.0, size=500)
    gain, offset = fit_shadow(g, b)
    assert abs(gain - 0.6) <= 0.05
    assert abs(offset - 5.0) <= 3.0


def test_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(MIN_SHADOW_PIXELS, 120))
        b = rng.integers(0, 256, size=n).astype(np.float64)
        if np.ptp(b) == 0:
            b[0] += 1.0
        g = rng.integers(0, 256, size=n).astype(np.float64)
        gain, offset = fit_shadow(g, b)
        a_ref, c_ref = normal_equations_oracle(g.tolist(), b.tolist())
        assert abs(gain - a_ref) <= 1e-9
        assert abs(offset - c_ref) <= 1e-9


def test_update_blend_example():
    params = ShadowParams(gain=0.5, offset=0.0)
    out = update_shadow(params, (0.6, 0.0), shadow_fraction=0.1, alpha=0.1)
    # keep = 1 - 0.01, blend = 0.01
    assert math.isclose(out.gain, 0.501, rel_tol=1e-12)
    assert out.offset == 0.0


def test_update_zero_fraction_is_identity():
    params = ShadowParams(gain=0.47, offset=3.5)
    out = update_shadow(params, (0.9, 50.0), shadow_fraction=0.0, alpha=0.5)
    assert out.gain == params.gain
    assert out.offset == params.offset


def test_update_full_fraction_full_rate_jumps_to_fit():
    params = ShadowParams(gain=0.5, offset=0.0)
    out = update_shadow(params, (0.8, 12.0), shadow_fraction=1.0, alpha=1.0)
    assert math.isclose(out.gain, 0.8, rel_tol=1e-12)
    assert math.isclose(out.offset, 12.0, rel_tol=1e-12)


def test_update_is_convex_combination_before_clamping():
    rng = np.random.default_rng(10)
    for _ in range(200):
        params = ShadowParams(gain=float(rng.uniform(GAIN_MIN, GAIN_MAX)),
                              offset=float(rng.uniform(-50, 50)))
        fit = (float(rng.uniform(GAIN_MIN, GAIN_MAX)), float(rng.uniform(-50, 50)))
        frac = float(rng.uniform(0, 1))
        alpha = float(rng.uniform(0, 1))
        out = update_shadow(params, fit, frac, alpha)
        lo, hi = sorted((params.gain, fit[0]))
        assert lo - 1e-12 <= out.gain <= hi + 1e-12
        lo, hi = sorted((params.offset, fit[1]))
        assert lo - 1e-12 <= out.offset <= hi + 1e-12


def test_update_clamps_to_admissible_box():
    params = ShadowParams(gain=0.9, offset=200.0)
    out = update_shadow(params, (5.0, 400.0), shadow_fraction=1.0, alpha=1.0)
    assert out.gain == GAIN_MAX
    assert out.offset == 255.0
    out = update_shadow(params, (0.01, -400.0), shadow_fraction=1.0, alpha=1.0)
    assert out.gain == GAIN_MIN
    assert out.offset == -255.0
