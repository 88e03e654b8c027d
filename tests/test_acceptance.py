"""Acceptance gate: end-to-end behavior bars with stated tolerances and
runtime budgets. Each test prints one PASS line with its measurements."""

import os
import time
from fractions import Fraction

import numpy as np

from oracles import (
    GaussianComponent,
    PixelMixture,
    background_edge_model,
    brute_force_map,
    edge_potential,
    hcf_python,
    label_boundary_mask,
    local_potential,
    sweep_outcome,
    total_energy,
    update_mixture,
)
from shadowseg import EngineConfig, EngineState, process_frame
from shadowseg.background import INIT_VARIANCE, BackgroundModel, MixtureGrid
from shadowseg.energy import initial_prior, update_label_bias
from shadowseg.evaluate import evaluate
from shadowseg.optimizer import hcf_minimize
from shadowseg.shadow import fit_shadow
from shadowseg.cli import main
from shadowseg.energy import FOREGROUND, PriorParams
from shadowseg.shadow import ShadowParams
from shadowseg.synth import render_scene, scene_preset

Y_MAX = 255.0
NO_SHADOW = ShadowParams(gain=1.0, offset=0.0)


def test_criterion_01_exact_map_when_sites_are_independent():
    # with no smoothness coupling the solver must match exhaustive search
    # exactly: labels and energy, 200 random instances, under 10 seconds
    rng = np.random.default_rng(3)
    shapes = [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (2, 4), (1, 6), (2, 5)]
    start = time.monotonic()
    for i in range(200):
        h, w = shapes[i % len(shapes)]
        u1 = rng.normal(0.0, 3.0, size=(3, h, w))
        u2 = rng.normal(0.0, 3.0, size=(3, h, w))
        prior = initial_prior(lambda1=float(rng.uniform(0, 5)), lambda2=0.0)
        res = hcf_minimize(u1, u2, prior)
        ref_labels, ref_energy = brute_force_map(u1, u2, prior)
        assert np.array_equal(res.labels, ref_labels)
        assert abs(res.energy - ref_energy) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"criterion 1: PASS (200/200 instances exact, {elapsed:.2f}s)")


def test_criterion_02_coupled_solutions_are_local_minima_and_near_optimal():
    # coupled instances: the result must admit no improving single-site
    # relabel, and on enumerable grids it must usually be globally optimal
    start = time.monotonic()
    rng = np.random.default_rng(11)
    for _ in range(100):
        u1 = rng.normal(0.0, 2.0, size=(3, 8, 8))
        u2 = rng.normal(0.0, 2.0, size=(3, 8, 8))
        prior = initial_prior(lambda1=float(rng.uniform(0, 3)),
                              lambda2=float(rng.uniform(0.1, 4.0)))
        lab = hcf_minimize(u1, u2, prior).labels
        for r in range(8):
            for c in range(8):
                cur = local_potential(r, c, int(lab[r, c]), lab, u1, u2, prior)
                for s in (1, 2, 3):
                    assert local_potential(r, c, s, lab, u1, u2, prior) >= cur - 1e-9

    rng = np.random.default_rng(13)
    exact = 0
    worst_gap = 0.0
    for _ in range(50):
        u1 = rng.normal(0.0, 1.0, size=(3, 3, 3))
        u2 = rng.normal(0.0, 1.0, size=(3, 3, 3))
        prior = initial_prior(lambda1=float(rng.uniform(0, 2)), lambda2=1.0)
        res = hcf_minimize(u1, u2, prior)
        _, ref_energy = brute_force_map(u1, u2, prior)
        gap = res.energy - ref_energy
        assert gap >= -1e-9
        worst_gap = max(worst_gap, gap)
        if gap <= 1e-9:
            exact += 1
    elapsed = time.monotonic() - start
    assert exact >= 30
    assert elapsed < 30.0
    print(f"criterion 2: PASS (no improving relabel on 100 grids; "
          f"{exact}/50 exact, worst gap {worst_gap:.3f}, {elapsed:.2f}s)")


def test_criterion_03_energy_decreases_monotonically_across_relabels():
    rng = np.random.default_rng(47)
    relabels_seen = 0
    for _ in range(60):
        h, w = rng.integers(4, 9, size=2)
        u1 = rng.normal(0.0, 2.0, size=(3, h, w))
        u2 = rng.normal(0.0, 2.0, size=(3, h, w))
        prior = initial_prior(lambda1=float(rng.uniform(0, 3)),
                              lambda2=float(rng.uniform(0.5, 4.0)))
        # the trace is the oracle's, of the same sweep as the kernel's
        res = hcf_minimize(u1, u2, prior)
        ref = hcf_python(u1, u2, prior, trace=True)
        assert sweep_outcome(res) == sweep_outcome(ref)
        for i, (kind, energy) in enumerate(ref.trace):
            if kind == "relabel":
                relabels_seen += 1
                assert energy < ref.trace[i - 1][1]
        assert np.isclose(ref.trace[-1][1], res.energy, rtol=1e-8, atol=1e-8)
        assert np.isclose(res.energy, total_energy(res.labels, u1, u2, prior),
                          rtol=1e-9, atol=1e-9)
    assert relabels_seen > 0
    print(f"criterion 3: PASS ({relabels_seen} relabels on 60 traces, "
          f"all strictly decreasing)")


def test_criterion_04_constant_input_convergence_matches_closed_form():
    alpha, mu0, v, n = 0.05, 100.0, 106.0, 100
    mix = PixelMixture([GaussianComponent(1.0, mu0, 25.0),
                        GaussianComponent(0.0, 0.0, 900.0),
                        GaussianComponent(0.0, 0.0, 900.0)])
    for _ in range(n):
        mix = update_mixture(mix, v, alpha)
    shrink = (1.0 - alpha) ** n
    expected = shrink * mu0 + (1.0 - shrink) * v
    err_scalar = abs(mix.components[0].mean - expected)
    assert err_scalar <= 1e-6

    grid = MixtureGrid.seed(np.full((6, 6), mu0), INIT_VARIANCE)
    grid.variances[0] = 25.0
    frame = np.full((6, 6), v)
    for _ in range(n):
        grid.update(frame, alpha)
    err_grid = float(np.abs(grid.means[0] - expected).max())
    assert err_grid <= 1e-6
    print(f"criterion 4: PASS (closed-form error scalar {err_scalar:.2e}, "
          f"grid {err_grid:.2e})")


def test_criterion_05_fit_matches_exact_normal_equations():
    def oracle(g, b):
        n = len(b)
        sb = sum(Fraction(x) for x in b)
        sg = sum(Fraction(x) for x in g)
        sbb = sum(Fraction(x) * Fraction(x) for x in b)
        sgb = sum(Fraction(x) * Fraction(y) for x, y in zip(g, b))
        denom = n * sbb - sb * sb
        a = (n * sgb - sg * sb) / denom
        c = (sg - a * sb) / n
        return float(a), float(c)

    rng = np.random.default_rng(51)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(20, 200))
        b = rng.integers(0, 256, size=n)
        if np.ptp(b) == 0:
            b[0] = (b[0] + 1) % 256
        g = rng.integers(0, 256, size=n)
        gain, offset = fit_shadow(g.astype(np.float64), b.astype(np.float64))
        a_ref, c_ref = oracle(g.tolist(), b.tolist())
        worst = max(worst, abs(gain - a_ref), abs(offset - c_ref))
    assert worst <= 1e-9

    b = np.arange(40, 200, 4, dtype=np.float64)
    gain, offset = fit_shadow(0.5 * b + 10.0, b)
    assert abs(gain - 0.5) <= 1e-9
    assert abs(offset - 10.0) <= 1e-9
    print(f"criterion 5: PASS (1000 random sets, worst deviation {worst:.2e}; "
          f"collinear data recovered exactly)")


def test_criterion_06_transform_recovers_planted_shadow():
    # a sweeping shadow with gain 0.6 and offset 5 over a scene whose
    # flickering strip keeps the pooled variance wide; the transform must
    # move from its generic start (0.5, 0) to the planted parameters
    scene = scene_preset("recovery")
    frames, _ = render_scene(scene, seed=0)
    config = EngineConfig(alpha=0.3, lambda1=2.0, lambda2=0.5)
    start = time.monotonic()
    state = EngineState.from_static(frames[:scene.lead_in], config)
    for frame in frames[scene.lead_in:]:
        process_frame(state, frame)
    elapsed = time.monotonic() - start
    gain, offset = state.shadow.gain, state.shadow.offset
    assert abs(gain - 0.6) <= 0.05
    assert abs(offset - 5.0) <= 3.0
    assert elapsed < 20.0
    print(f"criterion 6: PASS (a={gain:.4f}, c={offset:.2f} after "
          f"{len(frames) - scene.lead_in} frames, {elapsed:.2f}s)")


def test_criterion_07_segmentation_quality_on_moving_object_with_shadow():
    # moving bright object and attached shadow; scored off the one-pixel
    # band around ground-truth label boundaries
    scene = scene_preset("quality")
    frames, truths = render_scene(scene, seed=0)
    start = time.monotonic()
    state = EngineState.from_static(frames[:scene.lead_in])
    predicted = [process_frame(state, f)[0] for f in frames[scene.lead_in:]]
    elapsed = time.monotonic() - start
    active_truth = truths[scene.lead_in:]
    keep = [~label_boundary_mask(t, radius=1) for t in active_truth]
    report = evaluate([p[k] for p, k in zip(predicted, keep)],
                      [t[k] for t, k in zip(active_truth, keep)])
    acc = report.pixel_accuracy
    sh = report.recall["shadow"]
    fg = report.recall["foreground"]
    assert acc >= 0.95
    assert sh >= 0.80
    assert fg >= 0.90
    assert elapsed < 20.0
    print(f"criterion 7: PASS (accuracy {acc:.4f}, shadow recall {sh:.4f}, "
          f"foreground recall {fg:.4f}, {elapsed:.2f}s)")


def test_criterion_08_foreground_edge_density_and_edge_variances():
    # the foreground edge density must integrate to 1 over its square
    # support, and the model edge variances must match sampled frames
    n = 2049
    e = np.linspace(-Y_MAX, Y_MAX, n)
    eh, ev = np.meshgrid(e, e, indexing="ij")
    u = edge_potential(eh, ev, 0.0, 0.0, 18.0, 18.0, NO_SHADOW, Y_MAX, FOREGROUND)
    total = float(np.trapezoid(np.trapezoid(np.exp(-u), e, axis=1), e))
    assert abs(total - 1.0) <= 1e-3

    rng = np.random.default_rng(52)
    mean = rng.uniform(50, 200, size=(4, 6))
    variance = rng.uniform(9, 100, size=(4, 6))
    model = background_edge_model(BackgroundModel(mean=mean, variance=variance))
    samples = mean + np.sqrt(variance) * rng.standard_normal((100_000, 4, 6))
    padded = np.pad(samples, ((0, 0), (1, 1), (1, 1)), mode="edge")
    eh = padded[:, 1:-1, 2:] - padded[:, 1:-1, :-2]
    ev = padded[:, 2:, 1:-1] - padded[:, :-2, 1:-1]
    worst = 0.0
    for r, c in ((1, 1), (1, 3), (2, 2), (2, 4)):
        worst = max(worst, abs(eh[:, r, c].var() / model.var_h[r, c] - 1.0),
                    abs(ev[:, r, c].var() / model.var_v[r, c] - 1.0))
    assert worst <= 0.05
    print(f"criterion 8: PASS (density integral {total:.6f}; "
          f"worst sampled variance deviation {worst:.3f})")


def test_criterion_09_label_bias_stays_normalized():
    rng = np.random.default_rng(53)
    prior = initial_prior()
    worst = 0.0
    for _ in range(1000):
        counts = rng.integers(0, 10_000, size=3)
        prior = update_label_bias(prior, counts, alpha=float(rng.uniform(0, 1)))
        worst = max(worst, abs(float(prior.bias.sum()) + 1.0))
        assert np.all(prior.bias <= 0.0)
    assert worst <= 1e-9
    single = update_label_bias(PriorParams(bias=np.full(3, -1 / 3)), (80, 10, 10), 1.0)
    assert np.allclose(single.bias, [-0.8, -0.1, -0.1], atol=1e-12)
    print(f"criterion 9: PASS (1000 updates, worst normalization drift {worst:.2e})")


def test_criterion_10_runs_are_byte_reproducible(tmp_path):
    scene_dir = tmp_path / "scene"
    assert main(["synth", "--out", str(scene_dir), "--preset", "quality",
                 "--frames", "12", "--seed", "3"]) == 0
    frame_dir = os.path.join(scene_dir, "frames")
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        diag = tmp_path / f"{run}.csv"
        assert main(["segment", "--input", frame_dir, "--out", str(out),
                     "--bg-init", "5", "--diag", str(diag)]) == 0
        label_bytes = [(out / name).read_bytes() for name in sorted(os.listdir(out))]
        blobs.append((label_bytes, diag.read_bytes()))
    assert len(blobs[0][0]) == 7
    assert blobs[0][0] == blobs[1][0]
    assert blobs[0][1] == blobs[1][1]
    print("criterion 10: PASS (7 label maps and diagnostics byte-identical "
          "across runs)")
