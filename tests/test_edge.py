"""Central-difference edge vectors and the background edge-difference
distribution they induce."""

import numpy as np
import pytest

from shadowseg.background import BackgroundModel
from shadowseg.edge import EdgeModel, background_edge_model, frame_edges


def test_constant_frame_has_zero_edges():
    h, v = frame_edges(np.full((5, 7), 42.0))
    assert np.all(h == 0)
    assert np.all(v == 0)


def test_column_ramp_horizontal_differences():
    frame = np.tile(np.arange(6, dtype=np.float64), (4, 1))
    h, v = frame_edges(frame)
    # interior: (c+1) - (c-1) = 2; replicated borders halve it
    assert np.all(h[:, 1:-1] == 2.0)
    assert np.all(h[:, 0] == 1.0)
    assert np.all(h[:, -1] == 1.0)
    assert np.all(v == 0.0)


def test_row_ramp_vertical_differences():
    frame = np.tile(np.arange(5, dtype=np.float64)[:, None], (1, 6))
    h, v = frame_edges(frame)
    assert np.all(v[1:-1, :] == 2.0)
    assert np.all(v[0, :] == 1.0)
    assert np.all(v[-1, :] == 1.0)
    assert np.all(h == 0.0)


def test_integer_frames_do_not_wrap():
    frame = np.zeros((3, 4), dtype=np.uint8)
    frame[:, 2:] = 255
    h, _ = frame_edges(frame)
    assert h.max() == 255
    assert h.min() == 0


def test_linearity_in_the_frame():
    rng = np.random.default_rng(5)
    frame = rng.uniform(0, 255, size=(6, 8))
    h, v = frame_edges(frame)
    h2, v2 = frame_edges(2.5 * frame)
    assert np.allclose(h2, 2.5 * h)
    assert np.allclose(v2, 2.5 * v)
    # a constant offset cancels in every difference
    h3, v3 = frame_edges(frame + 40.0)
    assert np.allclose(h3, h)
    assert np.allclose(v3, v)


def test_rejects_tiny_frames():
    with pytest.raises(ValueError):
        frame_edges(np.zeros((2, 5)))
    with pytest.raises(ValueError):
        frame_edges(np.zeros((5, 2)))
    with pytest.raises(ValueError):
        frame_edges(np.zeros(9))


def test_model_variance_is_sum_of_neighbor_variances():
    bg = BackgroundModel(mean=np.full((4, 5), 100.0), variance=np.full((4, 5), 9.0))
    model = background_edge_model(bg)
    assert isinstance(model, EdgeModel)
    assert np.all(model.var_h == 18.0)
    assert np.all(model.var_v == 18.0)
    assert np.all(model.mean_h == 0.0)
    assert np.all(model.mean_v == 0.0)


def test_model_mean_is_difference_of_means():
    mean = np.tile(np.arange(6, dtype=np.float64), (4, 1))
    bg = BackgroundModel(mean=mean, variance=np.full((4, 6), 9.0))
    model = background_edge_model(bg)
    assert np.all(model.mean_h[:, 1:-1] == 2.0)
    assert np.all(model.mean_v == 0.0)
    h, v = frame_edges(mean)
    assert np.array_equal(model.mean_h, h)
    assert np.array_equal(model.mean_v, v)


def test_model_variance_mixes_neighbor_grids():
    rng = np.random.default_rng(6)
    variance = rng.uniform(4, 100, size=(5, 6))
    bg = BackgroundModel(mean=np.zeros((5, 6)), variance=variance)
    model = background_edge_model(bg)
    padded = np.pad(variance, 1, mode="edge")
    assert np.allclose(model.var_h, padded[1:-1, 2:] + padded[1:-1, :-2])
    assert np.allclose(model.var_v, padded[2:, 1:-1] + padded[:-2, 1:-1])


def test_monte_carlo_edge_variance_matches_model():
    # independent pixel noise: Var[b(x+1) - b(x-1)] = var(x+1) + var(x-1)
    rng = np.random.default_rng(7)
    mean = rng.uniform(50, 200, size=(3, 5))
    variance = rng.uniform(9, 100, size=(3, 5))
    bg = BackgroundModel(mean=mean, variance=variance)
    model = background_edge_model(bg)

    n = 100_000
    samples = mean + np.sqrt(variance) * rng.standard_normal((n, 3, 5))
    padded = np.pad(samples, ((0, 0), (1, 1), (1, 1)), mode="edge")
    eh = padded[:, 1:-1, 2:] - padded[:, 1:-1, :-2]
    ev = padded[:, 2:, 1:-1] - padded[:, :-2, 1:-1]

    r, c = 1, 2  # interior pixel: both neighbors are real
    assert abs(eh[:, r, c].var() / model.var_h[r, c] - 1.0) <= 0.05
    assert abs(ev[:, r, c].var() / model.var_v[r, c] - 1.0) <= 0.05
    assert abs(eh[:, r, c].mean() - model.mean_h[r, c]) <= 0.5
