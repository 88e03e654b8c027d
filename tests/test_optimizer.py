"""Highest-confidence-first labeling: stability scores, the commit and
relabel loop, agreement with exhaustive enumeration, and its energy
against expansion moves on the engine's frames."""

import itertools

import numpy as np
import pytest

from oracles import (BENCHMARK_WORKLOADS, alpha_expansion, brute_force_map, detection_tables,
                     engine_frames, expansion_move, hcf_python, local_potential, stability,
                     sweep_outcome, total_energy, unary_costs)
from shadowseg.energy import PriorParams, initial_prior
from shadowseg.optimizer import hcf_minimize

HCF_GAP = 1e-3      # largest share by which HCF's energy may exceed alpha-expansion's


def site_tables(f_values):
    """1x1 potential tables realizing the given three site potentials."""
    u1 = np.array(f_values, dtype=np.float64).reshape(3, 1, 1)
    u2 = np.zeros((3, 1, 1))
    prior = PriorParams(bias=np.zeros(3), lambda1=0.0, lambda2=1.0)
    return u1, u2, prior


def test_stability_uncommitted():
    u1, u2, prior = site_tables([5.0, 3.0, 7.0])
    labels = np.zeros((1, 1), dtype=np.int64)
    s, best = stability(0, 0, labels, u1, u2, prior)
    assert s == -2.0
    assert best == 2


def test_stability_committed():
    u1, u2, prior = site_tables([5.0, 3.0, 7.0])
    labels = np.full((1, 1), 2, dtype=np.int64)
    s, best = stability(0, 0, labels, u1, u2, prior)
    assert s == 2.0
    assert best == 2
    labels[0, 0] = 3
    s, best = stability(0, 0, labels, u1, u2, prior)
    assert s == -4.0
    assert best == 2


def test_stability_tie_is_zero_and_prefers_smallest_label():
    u1, u2, prior = site_tables([4.0, 4.0, 9.0])
    labels = np.zeros((1, 1), dtype=np.int64)
    s, best = stability(0, 0, labels, u1, u2, prior)
    assert s == 0.0
    assert best == 1


def test_stability_counts_committed_neighbors():
    u1 = np.zeros((3, 1, 2))
    u2 = np.zeros((3, 1, 2))
    prior = PriorParams(bias=np.zeros(3), lambda1=0.0, lambda2=4.0)
    labels = np.array([[0, 3]], dtype=np.int64)
    s, best = stability(0, 0, labels, u1, u2, prior)
    # agreeing with the committed neighbor is 4.0 cheaper than not
    assert s == -4.0
    assert best == 3


def test_single_site_minimization():
    u1, u2, prior = site_tables([5.0, 3.0, 7.0])
    res = hcf_minimize(u1, u2, prior)
    assert res.labels[0, 0] == 2
    assert res.energy == 3.0
    assert res.visits == 1
    assert res.relabels == 0


def test_no_coupling_reduces_to_per_site_argmin():
    rng = np.random.default_rng(26)
    u1 = rng.normal(size=(3, 6, 7))
    u2 = rng.normal(size=(3, 6, 7))
    prior = PriorParams(bias=rng.uniform(-1, 0, size=3), lambda1=3.0, lambda2=0.0)
    res = hcf_minimize(u1, u2, prior)
    assert np.array_equal(res.labels, unary_costs(u1, u2, prior).argmin(axis=0) + 1)


def test_huge_coupling_forces_shared_label():
    u1 = np.array([[1.0, 9.0], [5.0, 2.0], [9.0, 9.0]]).reshape(3, 1, 2)
    u2 = np.zeros((3, 1, 2))
    prior = PriorParams(bias=np.zeros(3), lambda1=0.0, lambda2=1e6)
    res = hcf_minimize(u1, u2, prior)
    # summed costs: label 1 -> 10, label 2 -> 7, label 3 -> 18
    assert np.all(res.labels == 2)
    bl, be = brute_force_map(u1, u2, prior)
    assert np.array_equal(res.labels, bl)
    assert np.isclose(res.energy, be, atol=1e-9)


def test_every_site_commits_exactly_once():
    rng = np.random.default_rng(27)
    u1 = rng.normal(size=(3, 5, 5))
    u2 = rng.normal(size=(3, 5, 5))
    prior = initial_prior(lambda1=1.0, lambda2=1.0)
    res = hcf_minimize(u1, u2, prior)
    ref = hcf_python(u1, u2, prior)
    assert ref.commits == 25
    assert sweep_outcome(res) == sweep_outcome(ref)
    assert res.visits == 25 + res.relabels
    assert np.all((res.labels >= 1) & (res.labels <= 3))


def test_trace_relabels_strictly_decrease():
    # the oracle's trace, of the sweep the kernel runs
    rng = np.random.default_rng(28)
    seen = 0
    for _ in range(40):
        u1 = rng.normal(0, 2, size=(3, 6, 6))
        u2 = rng.normal(0, 2, size=(3, 6, 6))
        prior = initial_prior(lambda1=float(rng.uniform(0, 3)),
                              lambda2=float(rng.uniform(0.5, 4)))
        ref = hcf_python(u1, u2, prior, trace=True)
        assert sweep_outcome(hcf_minimize(u1, u2, prior)) == sweep_outcome(ref)
        assert ref.relabels == sum(kind == "relabel" for kind, _ in ref.trace)
        for i, (kind, energy) in enumerate(ref.trace):
            if kind == "relabel":
                seen += 1
                assert energy < ref.trace[i - 1][1] - 1e-12
    assert seen > 0


def test_trace_ends_at_reported_energy():
    rng = np.random.default_rng(29)
    for _ in range(20):
        u1 = rng.normal(0, 2, size=(3, 5, 7))
        u2 = rng.normal(0, 2, size=(3, 5, 7))
        prior = initial_prior(lambda1=1.0, lambda2=2.0)
        res = hcf_minimize(u1, u2, prior)
        ref = hcf_python(u1, u2, prior, trace=True)
        assert sweep_outcome(res) == sweep_outcome(ref)
        assert np.isclose(ref.trace[-1][1], res.energy, rtol=1e-8, atol=1e-8)
        assert np.isclose(res.energy, total_energy(res.labels, u1, u2, prior),
                          rtol=1e-9, atol=1e-9)


def test_result_is_a_local_minimum():
    rng = np.random.default_rng(30)
    for _ in range(20):
        u1 = rng.normal(0, 2, size=(3, 5, 5))
        u2 = rng.normal(0, 2, size=(3, 5, 5))
        prior = initial_prior(lambda1=float(rng.uniform(0, 3)),
                              lambda2=float(rng.uniform(0.1, 4)))
        res = hcf_minimize(u1, u2, prior)
        lab = res.labels
        for r in range(5):
            for c in range(5):
                cur = local_potential(r, c, int(lab[r, c]), lab, u1, u2, prior)
                for s in (1, 2, 3):
                    assert (local_potential(r, c, s, lab, u1, u2, prior)
                            >= cur - 1e-9)


def test_labels_invariant_under_positive_scaling():
    rng = np.random.default_rng(31)
    for _ in range(20):
        u1 = rng.normal(0, 2, size=(3, 4, 5))
        u2 = rng.normal(0, 2, size=(3, 4, 5))
        bias = rng.uniform(-1, 0, size=3)
        lam1, lam2 = rng.uniform(0.1, 3, size=2)
        scale = float(rng.uniform(0.2, 8))
        res = hcf_minimize(u1, u2, PriorParams(bias=bias, lambda1=lam1, lambda2=lam2))
        scaled = hcf_minimize(scale * u1, scale * u2,
                              PriorParams(bias=bias, lambda1=scale * lam1,
                                          lambda2=scale * lam2))
        assert np.array_equal(res.labels, scaled.labels)
        assert np.isclose(scaled.energy, scale * res.energy, rtol=1e-9)


def test_deterministic_across_runs():
    rng = np.random.default_rng(32)
    u1 = rng.normal(size=(3, 8, 8))
    u2 = rng.normal(size=(3, 8, 8))
    prior = initial_prior(lambda1=2.0, lambda2=3.0)
    a = hcf_minimize(u1, u2, prior)
    b = hcf_minimize(u1, u2, prior)
    assert sweep_outcome(a) == sweep_outcome(b) == sweep_outcome(hcf_python(u1, u2, prior))
    assert (a.spilled, a.label_counts, a.pair) == (b.spilled, b.label_counts, b.pair)


def test_brute_force_rejects_large_grids():
    u = np.zeros((3, 4, 4))
    with pytest.raises(ValueError):
        brute_force_map(u, u, initial_prior())


def test_brute_force_ties_resolve_to_smallest_labels():
    u = np.zeros((3, 2, 2))
    labels, energy = brute_force_map(u, u, PriorParams(bias=np.zeros(3),
                                                       lambda1=0.0, lambda2=0.0))
    assert np.all(labels == 1)
    assert energy == 0.0


def test_brute_force_never_beaten_by_hcf():
    rng = np.random.default_rng(33)
    for _ in range(50):
        h, w = rng.integers(1, 4, size=2)
        u1 = rng.normal(0, 2, size=(3, h, w))
        u2 = rng.normal(0, 2, size=(3, h, w))
        prior = initial_prior(lambda1=float(rng.uniform(0, 3)),
                              lambda2=float(rng.uniform(0, 3)))
        res = hcf_minimize(u1, u2, prior)
        bl, be = brute_force_map(u1, u2, prior)
        assert res.energy >= be - 1e-9
        assert np.isclose(be, total_energy(bl, u1, u2, prior), atol=1e-9)


def expansion_moves(labels, alpha):
    """Every labeling that one expansion move to `alpha` reaches from `labels`."""
    free = np.flatnonzero(labels != alpha)
    for switched in itertools.product([False, True], repeat=free.size):
        moved = labels.ravel().copy()
        moved[free[list(switched)]] = alpha
        yield moved.reshape(labels.shape)


def test_expansion_move_is_the_cheapest_move_to_its_label():
    # integer potentials and clique weights, so the scaled cut is exact
    rng = np.random.default_rng(34)
    for shape in [(1, 1), (1, 5), (2, 2), (2, 3), (3, 3), (2, 4)] * 4:
        u1 = np.round(rng.normal(0, 3, size=(3, *shape)))
        u2 = np.zeros_like(u1)
        prior = initial_prior(lambda1=0.0, lambda2=float(rng.choice([1.0, 2.0, 4.0])))
        labels = rng.integers(1, 4, size=shape)
        for alpha in (1, 2, 3):
            moved = expansion_move(labels, alpha, u1, u2, prior)
            assert (np.where(moved == alpha, labels, moved) == labels).all()
            assert total_energy(moved, u1, u2, prior) == min(
                total_energy(m, u1, u2, prior) for m in expansion_moves(labels, alpha))


@pytest.mark.parametrize("workload", ["cli_adaptive_64", "recovery_flicker_64"])
def test_hcf_energy_is_near_alpha_expansion_on_engine_frames(workload):
    # expansion from HCF's labels and from each site's cheapest label
    for state, frame in engine_frames(**BENCHMARK_WORKLOADS[workload], seed=1):
        u1, u2 = detection_tables(state, frame)
        hcf = hcf_minimize(u1, u2, state.prior)
        argmin = unary_costs(u1, u2, state.prior).argmin(axis=0) + 1
        best = min(alpha_expansion(start, u1, u2, state.prior)[1] for start in (hcf.labels, argmin))
        assert hcf.energy - best <= HCF_GAP * abs(best), (hcf.energy, best)
