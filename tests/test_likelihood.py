"""Per-label potentials (the oracles `intensity_potential` and
`edge_potential`): Gaussian intensity terms, bivariate edge terms, the
triangular foreground edge density; and the stacked tables, which the
compiled kernel writes byte-identical to the oracle's numpy stacks."""

import math

import numpy as np
import pytest
from scipy import stats

import oracles
from oracles import (QVGA_SCENE, detection_arguments, edge_potential, engine_frames,
                     intensity_potential)
from shadowseg import BACKGROUND, FOREGROUND, SHADOW, EngineConfig
from shadowseg.edge import frame_edges
from shadowseg.likelihood import EDGE_DENSITY_FLOOR, build_potential_tables, dump_potentials
from shadowseg.shadow import Y_MAX, ShadowParams
from shadowseg.synth import scene_preset

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


def assert_same_tables_as_oracle(*args):
    tables = build_potential_tables(*args)
    expected = oracles.potential_tables(*args, Y_MAX)
    for table, reference in zip(tables, expected):
        assert table.shape == reference.shape
        assert table.tobytes() == reference.tobytes()


def test_tables_stack_the_scalar_potentials():
    rng = np.random.default_rng(17)
    h, w = 4, 5
    frame = rng.uniform(0, 255, size=(h, w))
    eh, ev = rng.uniform(-30, 30, size=(2, h, w))
    mu = rng.uniform(0, 255, size=(h, w))
    mean_h, mean_v = rng.uniform(-5, 5, size=(2, h, w))
    shadow = ShadowParams(gain=0.6, offset=5.0)
    assert_same_tables_as_oracle(frame, eh, ev, mu, mean_h, mean_v, 25.0, shadow)


def random_inputs(rng, h, w, y_max, edge_range):
    frame = rng.uniform(0, y_max, size=(h, w))
    eh, ev = rng.uniform(-edge_range, edge_range, size=(2, h, w))
    mu = rng.uniform(0, y_max, size=(h, w))
    mean_h, mean_v = rng.uniform(-20, 20, size=(2, h, w))
    return frame, eh, ev, mu, mean_h, mean_v


@pytest.mark.parametrize("y_max", [Y_MAX])
def test_tables_are_byte_identical_to_the_oracle_on_random_inputs(y_max):
    # edges beyond y_max reach the foreground density floor; gains of 0.1
    # and 1, nonzero offsets and pooled variances over seven decades
    rng = np.random.default_rng(int(y_max))
    for gain in (0.1, 1.0, *rng.uniform(0.05, 1.5, size=4)):
        h, w = rng.integers(3, 40, size=2)
        grids = random_inputs(rng, h, w, y_max, 1.5 * y_max)
        shadow = ShadowParams(gain=float(gain), offset=float(rng.uniform(-255, 255)))
        pooled = float(10 ** rng.uniform(-3, 4))
        assert_same_tables_as_oracle(*grids, pooled, shadow)


def test_floor_branch_is_exercised_at_y_max():
    rng = np.random.default_rng(19)
    frame, eh, ev, mu, mean_h, mean_v = random_inputs(rng, 12, 17, Y_MAX, 2.5 * Y_MAX)
    assert np.count_nonzero(np.abs(eh) > Y_MAX) > 10
    # the factor reaches the floor from |e| = Y_MAX - 0.1 on
    eh[0, :4] = ev[0, :4] = [254.95, -254.99, 255.0, -255.0]
    _, u2 = build_potential_tables(frame, eh, ev, mu, mean_h, mean_v, 9.0, NO_SHADOW)
    floor = EDGE_DENSITY_FLOOR / (Y_MAX * Y_MAX)
    both = (np.abs(eh) > Y_MAX) & (np.abs(ev) > Y_MAX)
    assert np.allclose(u2[FOREGROUND - 1][both], -2 * math.log(floor), atol=1e-12)
    assert_same_tables_as_oracle(frame, eh, ev, mu, mean_h, mean_v, 9.0, NO_SHADOW)


def test_tables_of_integer_frames_and_transposed_views():
    rng = np.random.default_rng(20)
    frame = rng.integers(0, 256, size=(23, 9))
    eh, ev = frame_edges(frame)
    mu = rng.uniform(0, 255, size=(23, 9))
    mean_h, mean_v = rng.uniform(-20, 20, size=(2, 23, 9))
    shadow = ShadowParams(gain=0.45, offset=-12.5)
    assert_same_tables_as_oracle(frame, eh, ev, mu, mean_h, mean_v, 6.25, shadow)
    transposed = [g.T for g in (frame, eh, ev, mu, mean_h, mean_v)]
    assert not transposed[0].flags.c_contiguous
    assert_same_tables_as_oracle(*transposed, 6.25, shadow)
    assert_same_tables_as_oracle(*(g.astype(np.float32) for g in transposed), 6.25, shadow)


def assert_same_tables_as_oracle_on_engine_frames(scene, config, n_labeled=None):
    # each labeled frame's tables, with the arguments process_frame builds
    # for them
    for state, frame in engine_frames(scene, config, n_labeled):
        assert_same_tables_as_oracle(*detection_arguments(state, frame))


@pytest.mark.parametrize("preset, config", [
    ("quality", EngineConfig()),
    ("recovery", EngineConfig(alpha=0.3, lambda1=2.0, lambda2=0.5)),
])
def test_tables_are_byte_identical_to_the_oracle_on_engine_instances(preset, config):
    assert_same_tables_as_oracle_on_engine_frames(scene_preset(preset), config)


def test_tables_are_byte_identical_to_the_oracle_at_320x240():
    assert_same_tables_as_oracle_on_engine_frames(QVGA_SCENE, EngineConfig(), n_labeled=2)


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
