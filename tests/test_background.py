"""Mixture-of-Gaussians background maintenance: matching, recursive
updates, replacement, background selection, and the vectorized grid."""

import math

import numpy as np
import pytest

from oracles import (
    GaussianComponent,
    PixelMixture,
    match_component,
    pixel,
    select_background,
    update_mixture,
)
from shadowseg.background import (INIT_VARIANCE, INIT_WEIGHT, VARIANCE_FLOOR,
                                  BackgroundModel, MixtureGrid, init_static)


def mk(triples):
    return PixelMixture([GaussianComponent(w, m, v) for w, m, v in triples])


def test_init_static_mean_and_unbiased_variance():
    frames = [np.full((4, 5), 98.0), np.full((4, 5), 102.0)]
    bg = init_static(frames).select_background()
    assert np.allclose(bg.mean, 100.0)
    # unbiased: ((98-100)^2 + (102-100)^2) / (2 - 1) = 8
    assert np.allclose(bg.variance, 8.0)


def test_init_static_variance_floor_on_constant_input():
    frames = [np.full((3, 3), 77.0)] * 4
    bg = init_static(frames).select_background()
    assert np.allclose(bg.mean, 77.0)
    assert np.allclose(bg.variance, VARIANCE_FLOOR)


def test_init_static_per_pixel():
    rng = np.random.default_rng(0)
    frames = [rng.uniform(0, 255, size=(6, 7)) for _ in range(10)]
    bg = init_static(frames).select_background()
    stack = np.stack(frames)
    assert np.allclose(bg.mean, stack.mean(axis=0))
    assert np.allclose(bg.variance, np.maximum(stack.var(axis=0, ddof=1), VARIANCE_FLOOR))


def test_init_static_rejects_short_or_mismatched_input():
    with pytest.raises(ValueError):
        init_static([np.zeros((3, 3))])
    with pytest.raises(ValueError):
        init_static([np.zeros((3, 3)), np.zeros((3, 4))])


def test_match_within_three_sigma():
    mix = mk([(0.6, 100.0, 25.0), (0.3, 50.0, 25.0), (0.1, 200.0, 25.0)])
    # |110 - 100| = 10 <= 3 * 5
    assert match_component(mix, 110.0) == 0
    # |116 - 100| = 16 > 15 and no other component is near
    assert match_component(mix, 116.0) is None


def test_match_boundary_is_inclusive():
    mix = mk([(1.0, 100.0, 25.0), (0.0, 0.0, 900.0), (0.0, 0.0, 900.0)])
    assert match_component(mix, 115.0) == 0


def test_match_prefers_higher_weight_over_stddev_ratio():
    # both components cover g = 100; the higher w/sigma one is checked first
    mix = mk([(0.3, 98.0, 100.0), (0.6, 102.0, 100.0), (0.1, 250.0, 25.0)])
    # ratios: 0.03 vs 0.06
    assert match_component(mix, 100.0) == 1


def test_match_order_invariant_to_weight_rescaling():
    rng = np.random.default_rng(1)
    for _ in range(50):
        w = rng.uniform(0.05, 1.0, size=3)
        mu = rng.uniform(0, 255, size=3)
        var = rng.uniform(4, 400, size=3)
        g = float(rng.uniform(0, 255))
        base = mk(list(zip(w, mu, var)))
        for scale in (0.1, 3.7):
            scaled = mk(list(zip(w * scale, mu, var)))
            assert match_component(base, g) == match_component(scaled, g)


def test_update_matched_component():
    mix = mk([(0.5, 100.0, 25.0), (0.3, 10.0, 25.0), (0.2, 200.0, 25.0)])
    out = update_mixture(mix, 110.0, alpha=0.1)
    # matched weight 0.55 before renormalization; others keep 0.3 and 0.2
    total = 0.55 + 0.3 + 0.2
    assert math.isclose(out.components[0].weight, 0.55 / total, rel_tol=1e-12)
    assert math.isclose(out.components[1].weight, 0.3 / total, rel_tol=1e-12)
    assert math.isclose(out.components[0].mean, 101.0, rel_tol=1e-12)
    # 0.9 * 25 + 0.1 * (110 - 100)^2 = 32.5
    assert math.isclose(out.components[0].variance, 32.5, rel_tol=1e-12)
    # unmatched components keep their parameters
    assert out.components[1].mean == 10.0
    assert out.components[2].variance == 25.0


def test_update_zero_rate_is_identity():
    mix = mk([(0.5, 100.0, 25.0), (0.3, 10.0, 16.0), (0.2, 200.0, 36.0)])
    out = update_mixture(mix, 110.0, alpha=0.0)
    for before, after in zip(mix.components, out.components):
        assert math.isclose(after.weight, before.weight, rel_tol=1e-12)
        assert after.mean == before.mean
        assert after.variance == before.variance


def test_update_no_match_replaces_lowest_weight():
    mix = mk([(0.5, 100.0, 4.0), (0.3, 50.0, 4.0), (0.2, 150.0, 4.0)])
    out = update_mixture(mix, 250.0, alpha=0.1)
    total = 0.5 + 0.3 + INIT_WEIGHT
    c = out.components[2]
    assert c.mean == 250.0
    assert c.variance == INIT_VARIANCE
    assert math.isclose(c.weight, INIT_WEIGHT / total, rel_tol=1e-12)
    assert math.isclose(out.components[0].weight, 0.5 / total, rel_tol=1e-12)


def test_update_variance_floor():
    mix = mk([(1.0, 100.0, 4.0), (0.0, 0.0, 900.0), (0.0, 0.0, 900.0)])
    out = update_mixture(mix, 100.0, alpha=0.1)
    assert out.components[0].variance == VARIANCE_FLOOR


def test_weights_sum_to_one_after_random_updates():
    rng = np.random.default_rng(2)
    for _ in range(30):
        mix = mk([(float(w), float(rng.uniform(0, 255)), float(rng.uniform(4, 400)))
                  for w in rng.dirichlet(np.ones(3))])
        for _ in range(40):
            mix = update_mixture(mix, float(rng.uniform(0, 255)), alpha=0.05)
            assert abs(mix.weights_sum() - 1.0) <= 1e-9


def test_constant_input_mean_converges_by_closed_form():
    alpha = 0.05
    mu0, v = 100.0, 106.0
    mix = mk([(1.0, mu0, 25.0), (0.0, 0.0, 900.0), (0.0, 0.0, 900.0)])
    n = 40
    for _ in range(n):
        mix = update_mixture(mix, v, alpha=alpha)
    shrink = (1.0 - alpha) ** n
    expected = shrink * mu0 + (1.0 - shrink) * v
    assert abs(mix.components[0].mean - expected) <= 1e-6


def test_select_background_prefers_weight_over_stddev():
    mix = mk([(0.7, 10.0, 100.0), (0.3, 20.0, 4.0), (0.0, 0.0, 900.0)])
    # ratios 0.07 vs 0.15: the tighter low-weight component wins
    mean, var = select_background(mix)
    assert mean == 20.0 and var == 4.0


def test_select_background_tie_goes_to_lowest_index():
    mix = mk([(0.4, 11.0, 25.0), (0.4, 22.0, 25.0), (0.2, 33.0, 25.0)])
    mean, var = select_background(mix)
    assert mean == 11.0 and var == 25.0


def test_grid_update_matches_scalar_updates():
    rng = np.random.default_rng(3)
    h, w = 5, 6
    weights = rng.dirichlet(np.ones(3), size=(h, w)).transpose(2, 0, 1)
    means = rng.uniform(0, 255, size=(3, h, w))
    variances = rng.uniform(4, 400, size=(3, h, w))
    grid = MixtureGrid(weights.copy(), means.copy(), variances.copy())

    frames = [rng.uniform(0, 255, size=(h, w)) for _ in range(5)]
    scalar = {(r, c): pixel(grid, r, c) for r in range(h) for c in range(w)}
    for frame in frames:
        grid.update(frame, alpha=0.1)
        for (r, c), mix in scalar.items():
            scalar[(r, c)] = update_mixture(mix, float(frame[r, c]), alpha=0.1)

    # byte for byte: the kernel replays the scalar arithmetic in its order
    for (r, c), mix in scalar.items():
        got = [(x.weight, x.mean, x.variance) for x in pixel(grid, r, c).components]
        want = [(x.weight, x.mean, x.variance) for x in mix.components]
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_grid_select_matches_scalar_selection():
    rng = np.random.default_rng(4)
    h, w = 4, 4
    weights = rng.dirichlet(np.ones(3), size=(h, w)).transpose(2, 0, 1)
    means = rng.uniform(0, 255, size=(3, h, w))
    variances = rng.uniform(4, 400, size=(3, h, w))
    grid = MixtureGrid(weights, means, variances)
    bg = grid.select_background()
    assert isinstance(bg, BackgroundModel)
    for r in range(h):
        for c in range(w):
            mean, var = select_background(pixel(grid, r, c))
            assert bg.mean[r, c] == mean
            assert bg.variance[r, c] == var


def test_grid_seed_puts_frame_in_first_component():
    frame = np.arange(12, dtype=np.float64).reshape(3, 4)
    grid = MixtureGrid.seed(frame)
    assert np.allclose(grid.weights[0], 1.0)
    assert np.allclose(grid.weights[1:], 0.0)
    assert np.allclose(grid.means[0], frame)
    assert np.allclose(grid.variances, INIT_VARIANCE)
    bg = grid.select_background()
    assert np.allclose(bg.mean, frame)
