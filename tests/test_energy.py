"""Labeling objective: pair cliques, totals, conditional site potentials,
and the adaptive per-label bias."""

import numpy as np
import pytest

from oracles import local_potential, pair_potential, unary_costs
from shadowseg.energy import (LABELS, PAIR_DIRECTIONS, UNCOMMITTED, PriorParams,
                              initial_prior, total_energy, update_label_bias)


def flat_prior(lambda1=0.0, lambda2=0.0):
    return PriorParams(bias=np.zeros(3), lambda1=lambda1, lambda2=lambda2)


def pair_sum_oracle(labels):
    """Disagreement weight summed over each unordered 8-neighbor pair once."""
    h, w = labels.shape
    total = 0.0
    for r in range(h):
        for c in range(w):
            for dr, dc, d2 in PAIR_DIRECTIONS:
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and labels[r, c] != labels[rr, cc]:
                    total += 1.0 / d2
    return total


def test_pair_potential_values():
    assert pair_potential(1, 1, 1.0) == 0.0
    assert pair_potential(1, 2, 1.0) == 1.0
    assert pair_potential(2, 3, 2.0) == 0.5
    assert pair_potential(3, 3, 2.0) == 0.0


def test_single_site_total():
    u1 = np.array([[[1.0]], [[2.0]], [[3.0]]])
    u2 = np.array([[[0.5]], [[0.25]], [[0.125]]])
    prior = PriorParams(bias=np.array([-0.5, -0.25, -0.25]), lambda1=10.0, lambda2=4.0)
    labels = np.array([[2]])
    assert np.isclose(total_energy(labels, u1, u2, prior), 2.0 + 0.25 - 2.5, atol=1e-12)


def test_two_site_total_includes_disagreement():
    u1 = np.zeros((3, 1, 2))
    u2 = np.zeros((3, 1, 2))
    prior = flat_prior(lambda2=4.0)
    assert total_energy(np.array([[1, 1]]), u1, u2, prior) == 0.0
    assert total_energy(np.array([[1, 3]]), u1, u2, prior) == 4.0


def test_flip_in_agreeing_square_costs_all_three_cliques():
    rng = np.random.default_rng(19)
    u1 = rng.normal(size=(3, 2, 2))
    u2 = rng.normal(size=(3, 2, 2))
    prior = PriorParams(bias=rng.uniform(-1, 0, size=3), lambda1=2.0, lambda2=4.0)
    same = np.full((2, 2), 1)
    flipped = same.copy()
    flipped[0, 1] = 3
    delta = total_energy(flipped, u1, u2, prior) - total_energy(same, u1, u2, prior)
    unary = (u1[2, 0, 1] + u2[2, 0, 1] + prior.lambda1 * prior.bias[2]
             - u1[0, 0, 1] - u2[0, 0, 1] - prior.lambda1 * prior.bias[0])
    # two axial cliques plus one diagonal: lambda2 * (1 + 1 + 0.5)
    assert np.isclose(delta, unary + prior.lambda2 * 2.5, atol=1e-12)


def test_total_rejects_uncommitted_sites():
    u = np.zeros((3, 2, 2))
    labels = np.array([[1, 1], [0, 1]])
    with pytest.raises(ValueError):
        total_energy(labels, u, u, flat_prior())


def test_total_matches_pairwise_oracle():
    rng = np.random.default_rng(20)
    for _ in range(30):
        h, w = rng.integers(2, 6, size=2)
        u1 = rng.normal(size=(3, h, w))
        u2 = rng.normal(size=(3, h, w))
        prior = PriorParams(bias=rng.uniform(-1, 0, size=3),
                            lambda1=float(rng.uniform(0, 5)),
                            lambda2=float(rng.uniform(0, 5)))
        labels = rng.integers(1, 4, size=(h, w))
        idx = labels - 1
        expected = sum(u1[idx[r, c], r, c] + u2[idx[r, c], r, c]
                       + prior.lambda1 * prior.bias[idx[r, c]]
                       for r in range(h) for c in range(w))
        expected += prior.lambda2 * pair_sum_oracle(labels)
        assert np.isclose(total_energy(labels, u1, u2, prior), expected, atol=1e-9)


def test_unary_costs_formula():
    rng = np.random.default_rng(21)
    u1 = rng.normal(size=(3, 2, 3))
    u2 = rng.normal(size=(3, 2, 3))
    prior = PriorParams(bias=np.array([-0.5, -0.3, -0.2]), lambda1=7.0, lambda2=1.0)
    costs = unary_costs(u1, u2, prior)
    assert np.allclose(costs, u1 + u2 + 7.0 * prior.bias[:, None, None], atol=1e-12)


def test_local_potential_ignores_uncommitted_neighbors():
    rng = np.random.default_rng(22)
    u1 = rng.normal(size=(3, 3, 3))
    u2 = rng.normal(size=(3, 3, 3))
    prior = PriorParams(bias=np.array([-0.4, -0.3, -0.3]), lambda1=5.0, lambda2=4.0)
    labels = np.zeros((3, 3), dtype=np.int64)
    for s in LABELS:
        f = local_potential(1, 1, s, labels, u1, u2, prior)
        expected = u1[s - 1, 1, 1] + u2[s - 1, 1, 1] + 5.0 * prior.bias[s - 1]
        assert np.isclose(f, expected, atol=1e-12)


def test_local_potential_neighbor_extremes():
    u = np.zeros((3, 3, 3))
    prior = flat_prior(lambda2=4.0)
    agree = np.full((3, 3), 2, dtype=np.int64)
    assert local_potential(1, 1, 2, agree, u, u, prior) == 0.0
    # all eight disagree: 4 axial + 4 diagonal = lambda2 * (4 + 2)
    assert local_potential(1, 1, 1, agree, u, u, prior) == 4.0 * 6.0


def test_local_potential_at_border_counts_present_neighbors_only():
    u = np.zeros((3, 2, 2))
    prior = flat_prior(lambda2=2.0)
    labels = np.array([[2, 2], [2, 2]], dtype=np.int64)
    # corner site: two axial neighbors plus one diagonal
    assert local_potential(0, 0, 1, labels, u, u, prior) == 2.0 * 2.5


def test_flip_delta_equals_local_potential_difference():
    # single-site flips change the total by exactly the local difference
    rng = np.random.default_rng(23)
    for _ in range(50):
        h, w = rng.integers(2, 6, size=2)
        u1 = rng.normal(size=(3, h, w))
        u2 = rng.normal(size=(3, h, w))
        prior = PriorParams(bias=rng.uniform(-1, 0, size=3),
                            lambda1=float(rng.uniform(0, 5)),
                            lambda2=float(rng.uniform(0, 5)))
        labels = rng.integers(1, 4, size=(h, w))
        r = int(rng.integers(h))
        c = int(rng.integers(w))
        new = int(rng.integers(1, 4))
        flipped = labels.copy()
        flipped[r, c] = new
        delta = (local_potential(r, c, new, labels, u1, u2, prior)
                 - local_potential(r, c, int(labels[r, c]), labels, u1, u2, prior))
        assert np.isclose(total_energy(flipped, u1, u2, prior)
                          - total_energy(labels, u1, u2, prior), delta, atol=1e-9)


def test_committed_potentials_sum_to_total_plus_pair_weight():
    # summing site potentials double counts the pair cliques
    rng = np.random.default_rng(24)
    u1 = rng.normal(size=(3, 4, 5))
    u2 = rng.normal(size=(3, 4, 5))
    prior = PriorParams(bias=rng.uniform(-1, 0, size=3), lambda1=3.0, lambda2=2.0)
    labels = rng.integers(1, 4, size=(4, 5))
    site_sum = sum(local_potential(r, c, int(labels[r, c]), labels, u1, u2, prior)
                   for r in range(4) for c in range(5))
    total = total_energy(labels, u1, u2, prior)
    assert np.isclose(site_sum, total + prior.lambda2 * pair_sum_oracle(labels),
                      atol=1e-9)


def test_initial_bias_is_uniform():
    prior = initial_prior()
    assert np.allclose(prior.bias, -1.0 / 3.0, atol=1e-12)
    assert prior.lambda1 == 10.0
    assert prior.lambda2 == 4.0


def test_bias_update_example():
    prior = initial_prior()
    out = update_label_bias(prior, (80, 10, 10), alpha=1.0)
    assert np.allclose(out.bias, [-0.8, -0.1, -0.1], atol=1e-12)
    blended = update_label_bias(prior, (80, 10, 10), alpha=0.1)
    assert np.allclose(blended.bias, [-0.38, -0.31, -0.31], atol=1e-12)


def test_bias_update_keeps_lambdas():
    prior = initial_prior(lambda1=2.0, lambda2=0.5)
    out = update_label_bias(prior, (5, 5, 0), alpha=0.3)
    assert out.lambda1 == 2.0
    assert out.lambda2 == 0.5


def test_bias_update_zero_counts_is_identity():
    prior = initial_prior()
    out = update_label_bias(prior, (0, 0, 0), alpha=0.5)
    assert np.array_equal(out.bias, prior.bias)


def test_bias_always_sums_to_minus_one():
    rng = np.random.default_rng(25)
    prior = initial_prior()
    for _ in range(200):
        counts = rng.integers(0, 5000, size=3)
        if counts.sum() == 0:
            counts[0] = 1
        prior = update_label_bias(prior, counts, alpha=float(rng.uniform(0, 1)))
        assert abs(prior.bias.sum() + 1.0) <= 1e-9
        assert np.all(prior.bias <= 0.0)
