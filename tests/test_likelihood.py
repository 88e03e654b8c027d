"""Per-label potentials: Gaussian intensity terms, bivariate edge terms,
the triangular foreground edge density, and the stacked tables."""

import math

import numpy as np
import pytest
from scipy import stats

from shadowseg import BACKGROUND, FOREGROUND, SHADOW
from shadowseg.edge import EdgeModel
from shadowseg.likelihood import (EDGE_DENSITY_FLOOR, build_potential_tables,
                                  dump_potentials, edge_potential, intensity_potential)
from shadowseg.shadow import ShadowParams

Y_MAX = 255.0
NO_SHADOW = ShadowParams(gain=1.0, offset=0.0)


def test_background_intensity_peak_value():
    u = intensity_potential(100.0, 100.0, 25.0, NO_SHADOW, Y_MAX, BACKGROUND)
    # -ln of the Gaussian mode: 0.5 * ln(2 pi 25)
    assert np.isclose(u, 2.5283764456387728, atol=1e-12)


def test_background_intensity_matches_gaussian_logpdf():
    rng = np.random.default_rng(11)
    for _ in range(100):
        g = rng.uniform(0, 255)
        mu = rng.uniform(0, 255)
        var = rng.uniform(4, 400)
        u = intensity_potential(g, mu, var, NO_SHADOW, Y_MAX, BACKGROUND)
        assert np.isclose(u, -stats.norm.logpdf(g, mu, math.sqrt(var)), atol=1e-10)


def test_shadow_intensity_matches_transformed_gaussian():
    rng = np.random.default_rng(12)
    shadow = ShadowParams(gain=0.6, offset=5.0)
    for _ in range(100):
        g = rng.uniform(0, 255)
        mu = rng.uniform(0, 255)
        var = rng.uniform(4, 400)
        u = intensity_potential(g, mu, var, shadow, Y_MAX, SHADOW)
        ref = -stats.norm.logpdf(g, 0.6 * mu + 5.0, 0.6 * math.sqrt(var))
        assert np.isclose(u, ref, atol=1e-10)


def test_shadow_intensity_peak_value():
    shadow = ShadowParams(gain=0.5, offset=0.0)
    u = intensity_potential(50.0, 100.0, 25.0, shadow, Y_MAX, SHADOW)
    # mode of a Gaussian with stddev 0.5 * 5
    assert np.isclose(u, -math.log(1.0 / (math.sqrt(2 * math.pi) * 2.5)), atol=1e-12)


def test_unit_gain_shadow_equals_background():
    rng = np.random.default_rng(13)
    g = rng.uniform(0, 255, size=(4, 5))
    mu = rng.uniform(0, 255, size=(4, 5))
    var = rng.uniform(4, 400, size=(4, 5))
    sh = intensity_potential(g, mu, var, NO_SHADOW, Y_MAX, SHADOW)
    bg = intensity_potential(g, mu, var, NO_SHADOW, Y_MAX, BACKGROUND)
    assert np.allclose(sh, bg, atol=1e-12)


def test_foreground_intensity_is_uniform():
    u = intensity_potential(np.array([0.0, 100.0, 255.0]), 50.0, 25.0,
                            NO_SHADOW, Y_MAX, FOREGROUND)
    assert np.allclose(u, math.log(255.0), atol=1e-12)
    assert np.isclose(u[0], 5.541263545158426, atol=1e-12)


def test_rejects_uncommitted_label():
    with pytest.raises(ValueError):
        intensity_potential(0.0, 0.0, 4.0, NO_SHADOW, Y_MAX, 0)
    with pytest.raises(ValueError):
        edge_potential(0.0, 0.0, 0.0, 0.0, 4.0, 4.0, NO_SHADOW, Y_MAX, 0)


def test_background_edge_mode_value():
    u = edge_potential(0.0, 0.0, 0.0, 0.0, 18.0, 18.0, NO_SHADOW, Y_MAX, BACKGROUND)
    # -ln of the bivariate mode: ln(2 pi) + 0.5 ln(18 * 18)
    assert np.isclose(u, -math.log(1.0 / (2 * math.pi * 18.0)), atol=1e-12)


def test_background_edge_matches_componentwise_logpdf():
    rng = np.random.default_rng(14)
    for _ in range(100):
        eh, ev = rng.uniform(-60, 60, size=2)
        mh, mv = rng.uniform(-20, 20, size=2)
        vh, vv = rng.uniform(4, 200, size=2)
        u = edge_potential(eh, ev, mh, mv, vh, vv, NO_SHADOW, Y_MAX, BACKGROUND)
        ref = (-stats.norm.logpdf(eh, mh, math.sqrt(vh))
               - stats.norm.logpdf(ev, mv, math.sqrt(vv)))
        assert np.isclose(u, ref, atol=1e-10)


def test_shadow_edge_scales_means_and_variances_by_gain():
    rng = np.random.default_rng(15)
    shadow = ShadowParams(gain=0.6, offset=5.0)
    for _ in range(100):
        eh, ev = rng.uniform(-60, 60, size=2)
        mh, mv = rng.uniform(-20, 20, size=2)
        vh, vv = rng.uniform(4, 200, size=2)
        u = edge_potential(eh, ev, mh, mv, vh, vv, shadow, Y_MAX, SHADOW)
        ref = (-stats.norm.logpdf(eh, 0.6 * mh, 0.6 * math.sqrt(vh))
               - stats.norm.logpdf(ev, 0.6 * mv, 0.6 * math.sqrt(vv)))
        assert np.isclose(u, ref, atol=1e-10)


def test_foreground_edge_at_zero():
    u = edge_potential(0.0, 0.0, 0.0, 0.0, 18.0, 18.0, NO_SHADOW, Y_MAX, FOREGROUND)
    assert np.isclose(u, 2 * math.log(255.0), atol=1e-12)


def test_foreground_edge_floor_at_extreme_differences():
    u = edge_potential(255.0, 255.0, 0.0, 0.0, 18.0, 18.0, NO_SHADOW, Y_MAX, FOREGROUND)
    floor = EDGE_DENSITY_FLOOR / (Y_MAX * Y_MAX)
    assert np.isclose(u, -2 * math.log(floor), atol=1e-12)


def test_foreground_edge_grows_with_difference_magnitude():
    mags = np.array([0.0, 30.0, 90.0, 180.0])
    u = edge_potential(mags, 0.0, 0.0, 0.0, 18.0, 18.0, NO_SHADOW, Y_MAX, FOREGROUND)
    assert np.all(np.diff(u) > 0)
    assert np.allclose(
        edge_potential(-mags, 0.0, 0.0, 0.0, 18.0, 18.0, NO_SHADOW, Y_MAX, FOREGROUND),
        u, atol=1e-12)


def test_foreground_edge_density_integrates_to_one():
    n = 1025
    e = np.linspace(-Y_MAX, Y_MAX, n)
    eh, ev = np.meshgrid(e, e, indexing="ij")
    u = edge_potential(eh, ev, 0.0, 0.0, 18.0, 18.0, NO_SHADOW, Y_MAX, FOREGROUND)
    density = np.exp(-u)
    total = np.trapezoid(np.trapezoid(density, e, axis=1), e)
    assert abs(total - 1.0) <= 1e-3


def test_foreground_edge_density_matches_uniform_difference_marginal():
    # differences of two independent uniform intensities are triangular
    rng = np.random.default_rng(16)
    samples = rng.uniform(0, Y_MAX, size=1_000_000) - rng.uniform(0, Y_MAX, size=1_000_000)
    half = Y_MAX / 2.0
    empirical = np.mean(np.abs(samples) <= half)
    e = np.linspace(-half, half, 4097)
    factor = np.exp(-edge_potential(e, 0.0, 0.0, 0.0, 18.0, 18.0,
                                    NO_SHADOW, Y_MAX, FOREGROUND)) * Y_MAX
    predicted = np.trapezoid(factor, e)
    assert abs(empirical - predicted) <= 0.02 * predicted


def test_tables_stack_the_scalar_potentials():
    rng = np.random.default_rng(17)
    h, w = 4, 5
    frame = rng.uniform(0, 255, size=(h, w))
    eh, ev = rng.uniform(-30, 30, size=(2, h, w))
    mu = rng.uniform(0, 255, size=(h, w))
    pooled = 25.0
    edges = EdgeModel(mean_h=rng.uniform(-5, 5, size=(h, w)),
                      mean_v=rng.uniform(-5, 5, size=(h, w)),
                      var_h=np.full((h, w), 2 * pooled),
                      var_v=np.full((h, w), 2 * pooled))
    shadow = ShadowParams(gain=0.6, offset=5.0)
    u1, u2 = build_potential_tables(frame, eh, ev, mu, pooled, edges, shadow, Y_MAX)
    assert u1.shape == (3, h, w) and u2.shape == (3, h, w)
    for label in (BACKGROUND, SHADOW, FOREGROUND):
        assert np.allclose(
            u1[label - 1],
            intensity_potential(frame, mu, pooled, shadow, Y_MAX, label), atol=1e-12)
        assert np.allclose(
            u2[label - 1],
            edge_potential(eh, ev, edges.mean_h, edges.mean_v, edges.var_h,
                           edges.var_v, shadow, Y_MAX, label), atol=1e-12)


def test_dump_layout_is_six_values_per_pixel_row_major(tmp_path):
    rng = np.random.default_rng(18)
    u1 = rng.uniform(0, 10, size=(3, 2, 3))
    u2 = rng.uniform(0, 10, size=(3, 2, 3))
    path = tmp_path / "pots.f64"
    dump_potentials(u1, u2, path)
    raw = np.fromfile(path, dtype=np.float64).reshape(2, 3, 6)
    for r in range(2):
        for c in range(3):
            assert np.array_equal(raw[r, c, :3], u1[:, r, c])
            assert np.array_equal(raw[r, c, 3:], u2[:, r, c])
