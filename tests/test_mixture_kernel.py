"""The compiled mixture update and background selection against the scalar
oracles of `tests/oracles.py`, run pixel by pixel: the same bytes of
weights, means, variances and background model, frame after frame."""

import numpy as np
import pytest

from oracles import pixel, select_background, update_mixture
from shadowseg.background import (INIT_VARIANCE, MATCH_SIGMAS, VARIANCE_FLOOR,
                                  MixtureGrid, init_static)

# variances whose square roots are exact, so that an observation can sit
# exactly at 3 sigma
EXACT_VARIANCES = np.array([VARIANCE_FLOOR, 9.0, 16.0, 25.0, 100.0, INIT_VARIANCE])


def models(grid: MixtureGrid, background) -> list[bytes]:
    return [grid.weights.tobytes(), grid.means.tobytes(), grid.variances.tobytes(),
            background.mean.tobytes(), background.variance.tobytes()]


def oracle_models(pixels: dict, k: int, shape) -> list[bytes]:
    """The bytes of `models`, assembled from one scalar mixture per pixel."""
    lanes = np.empty((3, k, *shape))
    mean, variance = np.empty(shape), np.empty(shape)
    for (r, c), mixture in pixels.items():
        for i, comp in enumerate(mixture.components):
            lanes[:, i, r, c] = comp.weight, comp.mean, comp.variance
        mean[r, c], variance[r, c] = select_background(mixture)
    return [lane.tobytes() for lane in lanes] + [mean.tobytes(), variance.tobytes()]


def assert_same_as_oracles(weights, means, variances, frames, alpha):
    grid = MixtureGrid(weights, means, variances)
    k, h, w = grid.weights.shape
    pixels = {(r, c): pixel(grid, r, c) for r in range(h) for c in range(w)}
    assert models(grid, grid.select_background()) == oracle_models(pixels, k, (h, w))
    for frame in frames:
        grid.update(frame, alpha)
        pixels = {(r, c): update_mixture(mixture, frame[r, c], alpha)
                  for (r, c), mixture in pixels.items()}
        assert models(grid, grid.select_background()) == oracle_models(pixels, k, (h, w))


def random_mixtures(rng, k, h, w):
    """Random mixtures with exactly tied components, zero-weight lanes and
    variances at the floor."""
    weights = rng.dirichlet(np.ones(k), size=(h, w)).transpose(2, 0, 1).copy()
    means = np.round(rng.uniform(0, 255, size=(k, h, w)))
    variances = rng.choice(EXACT_VARIANCES, size=(k, h, w))
    tied = rng.random((h, w)) < 0.2
    for lane in (weights, means, variances):
        lane[1][tied] = lane[0][tied]
    rows, cols = np.indices((h, w))
    weights[rng.integers(0, k, size=(h, w)), rows, cols] *= rng.random((h, w)) < 0.7
    weights /= weights.sum(axis=0)
    return weights, means, variances


def frames_around(rng, weights, means, variances, n):
    """Frames mixing observations near a component, exactly at and just past
    3 sigma of one, and far from all (which forces a replacement)."""
    k, h, w = means.shape
    out = []
    for _ in range(n):
        lane = rng.integers(0, k, size=(h, w))
        mu = np.take_along_axis(means, lane[None], 0)[0]
        sigma = np.sqrt(np.take_along_axis(variances, lane[None], 0)[0])
        sign = rng.choice([-1.0, 1.0], size=(h, w))
        edge = mu + sign * MATCH_SIGMAS * sigma
        kind = rng.integers(0, 4, size=(h, w))
        frame = np.select([kind == 0, kind == 1, kind == 2],
                          [mu + rng.normal(0.0, 1.0, size=(h, w)) * sigma, edge,
                           np.nextafter(edge, edge + sign)],
                          rng.uniform(-400.0, 700.0, size=(h, w)))
        out.append(frame)
    return out


@pytest.mark.parametrize("k", [3, 4, 5])
def test_random_mixtures_with_ties_boundaries_and_replacement(k):
    rng = np.random.default_rng(70 + k)
    for alpha in (0.02, 0.3, 1.0):
        weights, means, variances = random_mixtures(rng, k, 9, 11)
        frames = frames_around(rng, weights, means, variances, 6)
        assert_same_as_oracles(weights, means, variances, frames, alpha)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_adaptive_seed_with_placeholders(k):
    rng = np.random.default_rng(80 + k)
    seed = MixtureGrid.seed(np.round(rng.uniform(0, 255, size=(12, 10))), k)
    frames = [seed.means[0] + rng.normal(0.0, 5.0, size=(12, 10)) for _ in range(4)]
    frames += [rng.uniform(0, 255, size=(12, 10)) for _ in range(4)]
    for alpha in (0.02, 1.0):
        assert_same_as_oracles(seed.weights, seed.means, seed.variances, frames, alpha)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_static_seed_with_floored_variances(k):
    rng = np.random.default_rng(90 + k)
    boot = [np.full((8, 8), 120.0)] * 2 + [120.0 + rng.normal(0.0, 3.0, size=(8, 8))]
    seed = init_static(boot, k)
    assert (seed.variances[0] == VARIANCE_FLOOR).any()
    frames = [120.0 + rng.normal(0.0, 4.0, size=(8, 8)) for _ in range(5)]
    frames.append(np.full((8, 8), 255.0))
    assert_same_as_oracles(seed.weights, seed.means, seed.variances, frames, 0.05)


def test_tied_components_go_to_the_first_index():
    # two identical components, both matching: the first is updated
    weights = np.array([0.4, 0.4, 0.2])[:, None, None] * np.ones((3, 2, 2))
    means = np.full((3, 2, 2), 100.0)
    variances = np.full((3, 2, 2), 25.0)
    grid = MixtureGrid(weights, means, variances)
    grid.update(np.full((2, 2), 101.0), 0.5)
    assert (grid.means[0] == 100.5).all() and (grid.means[1] == 100.0).all()
    assert_same_as_oracles(weights, means, variances, [np.full((2, 2), 101.0)], 0.5)
    bg = MixtureGrid(weights, means, variances).select_background()
    assert (bg.mean == 100.0).all() and (bg.variance == 25.0).all()


def test_non_contiguous_input_is_copied():
    rng = np.random.default_rng(5)
    weights, means, variances = random_mixtures(rng, 4, 6, 7)
    fortran = [np.asfortranarray(a) for a in (weights, means, variances)]
    strided = [np.repeat(a, 2, axis=2)[:, :, ::2] for a in (weights, means, variances)]
    frames = frames_around(rng, weights, means, variances, 3)
    frames = [np.repeat(f, 2, axis=1)[:, ::2] for f in frames]      # strided frames too
    for arrays in (fortran, strided):
        assert_same_as_oracles(*arrays, frames, 0.1)
        grid = MixtureGrid(*arrays)
        before = [a.copy() for a in arrays]
        grid.update(frames[0], 0.1)
        assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


def test_selection_never_aliases_the_mixtures():
    grid = MixtureGrid.seed(np.full((3, 4), 50.0))
    bg = grid.select_background()
    for array in (bg.mean, bg.variance):
        assert not any(np.shares_memory(array, lane)
                       for lane in (grid.weights, grid.means, grid.variances))
    grid.update(np.full((3, 4), 60.0), 0.5)
    assert (bg.mean == 50.0).all() and (bg.variance == INIT_VARIANCE).all()


def test_shapes_are_checked():
    grid = MixtureGrid.seed(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="frame shape"):
        grid.update(np.zeros((4, 3)), 0.1)
    with pytest.raises(ValueError, match="frame shape"):
        grid.update(np.zeros((1, 4)), 0.1)
    with pytest.raises(ValueError, match="one shape"):
        MixtureGrid(np.ones((3, 2, 2)), np.ones((3, 2, 2)), np.ones((3, 2, 3)))
    with pytest.raises(ValueError, match="one shape"):
        MixtureGrid(np.ones((3, 4)), np.ones((3, 4)), np.ones((3, 4)))
