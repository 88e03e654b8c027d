"""Bad settings and bad input are rejected at the boundary with a clear
error: engine settings out of range, frames smaller than 3x3 or with NaN
or infinite pixels, PGM frames that do not use the 0..255 scale, inputs
of the potential tables that are not six (H, W) grids and a finite
positive pooled variance, and potential tables the HCF sweep cannot read
as two (3, H, W) arrays of one shape, or whose site potentials, label
bias or clique weights are NaN or infinite."""

import numpy as np
import pytest

from oracles import pgm_bytes
from shadowseg import EngineConfig, EngineState, PgmError, process_frame, read_frame
from shadowseg.background import VARIANCE_FLOOR, MixtureGrid
from shadowseg.cli import main
from shadowseg.energy import PriorParams, initial_prior
from shadowseg.likelihood import build_potential_tables
from shadowseg.optimizer import hcf_minimize
from shadowseg.pgmio import read_pgm, write_pgm
from shadowseg.shadow import ShadowParams


@pytest.mark.parametrize("setting, value, message", [
    ("alpha", 0.0, "alpha"),
    ("alpha", -0.1, "alpha"),
    ("alpha", 1.5, "alpha"),
    ("alpha", 2.0, "alpha"),
    ("alpha", float("nan"), "alpha"),
    ("lambda1", -1.0, "lambda1"),
    ("lambda1", float("nan"), "lambda1"),
    ("lambda1", float("inf"), "lambda1"),
    ("lambda2", -1.0, "lambda2"),
    ("lambda2", float("nan"), "lambda2"),
    ("lambda2", float("inf"), "lambda2"),
])
def test_engine_config_rejects_out_of_range_settings(setting, value, message):
    with pytest.raises(ValueError, match=message):
        EngineConfig(**{setting: value})


@pytest.mark.parametrize("settings", [
    {"alpha": 1.0}, {"alpha": 1e-6}, {"lambda1": 0.0}, {"lambda2": 0.0},
])
def test_engine_config_accepts_range_edges(settings):
    EngineConfig(**settings)


def test_mixture_update_takes_alpha_in_0_1_only():
    # the engine's rule for alpha holds for a direct caller too: at alpha 0
    # a grid of zero weights renormalizes 0 / 0, and at NaN every weight
    # and mean would come back NaN
    frame = np.full((2, 2), 100.0)
    means = np.stack([np.full((2, 2), m) for m in (100.0, 150.0, 200.0)])
    for weight, alpha in [(0.0, 0.0), (1 / 3, float("nan")), (1 / 3, -0.5), (1 / 3, 1.5)]:
        grid = MixtureGrid(np.full((3, 2, 2), weight), means, np.full((3, 2, 2), 25.0))
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 1\]"):
            grid.update(frame, alpha)
        assert (grid.weights == weight).all() and (grid.means == means).all()
    # alpha 1 is in range: component 0 matches and takes the frame
    grid.update(frame, 1.0)
    assert np.allclose(grid.weights.sum(axis=0), 1.0) and (grid.means[0] == 100.0).all()


def test_complex_frames_are_rejected():
    # numpy would keep the real part only, labelling a frame of 100 + 5j as 100
    frame = np.full((8, 8), 100 + 5j)
    with pytest.raises(ValueError, match="real numbers"):
        EngineState.from_first_frame(frame)
    with pytest.raises(ValueError, match="real numbers"):
        EngineState.from_static([frame.real, frame])
    state = EngineState.from_static([frame.real, frame.real])
    with pytest.raises(ValueError, match="real numbers"):
        process_frame(state, frame)
    assert state.k == 0
    process_frame(state, frame.real)


def tiny_frames(tmp_path, n=3):
    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    rng = np.random.default_rng(5)
    for k in range(n):
        write_pgm(frame_dir / f"frame_{k:04d}.pgm",
                  rng.integers(90, 110, size=(8, 8), dtype=np.uint8))
    return frame_dir


@pytest.mark.parametrize("flag, value", [
    ("--alpha", "2"), ("--lambda2", "-1"), ("--lambda2", "inf"),
])
def test_segment_rejects_out_of_range_settings(tmp_path, capsys, flag, value):
    frame_dir = tiny_frames(tmp_path)
    out = tmp_path / "labels"
    assert main(["segment", "--input", str(frame_dir), "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not out.exists()


def test_segment_rejects_negative_bg_init(tmp_path, capsys):
    frame_dir = tiny_frames(tmp_path)
    out = tmp_path / "labels"
    assert main(["segment", "--input", str(frame_dir), "--out", str(out),
                 "--bg-init", "-3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bg-init" in err
    assert not out.exists()

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {frame_dir}\nout = {out}\nbg_init = -1\n")
    assert main(["segment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bg-init" in err
    assert not out.exists()


def test_config_file_settings_are_validated_too(tmp_path, capsys):
    frame_dir = tiny_frames(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {frame_dir}\nout = {tmp_path / 'labels'}\nalpha = 2\n")
    assert main(["segment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "alpha" in err


def test_config_file_value_of_the_wrong_type_names_its_line(tmp_path, capsys):
    frame_dir = tiny_frames(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"input = {frame_dir}\nout = {tmp_path / 'labels'}\nbg-init = 4.5\n")
    assert main(["segment", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:3: bg_init ") and "'4.5'" in err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_frames_are_rejected(bad):
    rng = np.random.default_rng(6)
    frames = [100.0 + rng.normal(0, 2, size=(8, 8)) for _ in range(3)]
    poisoned = frames[0].copy()
    poisoned[3, 4] = bad

    with pytest.raises(ValueError, match="NaN or infinite"):
        EngineState.from_static([frames[1], poisoned])
    with pytest.raises(ValueError, match="NaN or infinite"):
        EngineState.from_first_frame(poisoned)

    state = EngineState.from_static(frames[1:])
    with pytest.raises(ValueError, match="NaN or infinite"):
        process_frame(state, poisoned)
    assert state.k == 0
    labels, diag = process_frame(state, frames[0])
    assert np.isfinite(diag.energy)


def test_static_bootstrap_rejects_frames_outside_the_pixel_scale():
    # finite frames whose mean or sample variance would overflow never reach
    # the bootstrap: their pixels are off the 0..255 scale
    with pytest.raises(ValueError, match=r"NaN or infinite pixels, or pixels outside \[0, 255\]"):
        EngineState.from_static([np.zeros((4, 4)), np.full((4, 4), 1e200)])
    with pytest.raises(ValueError, match="NaN or infinite"):
        EngineState.from_static([np.full((4, 4), 1e308), np.full((4, 4), 1e308)])
    with pytest.raises(ValueError, match="NaN or infinite"):
        EngineState.from_static([np.zeros((4, 4)), np.full((4, 4), -0.5)])


def test_adaptive_start_rejects_frames_outside_the_pixel_scale():
    # a frame near the float maximum would overflow the noise estimate's
    # mask; it is refused before, not at the next frame's potential tables
    with pytest.raises(ValueError, match="NaN or infinite"):
        EngineState.from_first_frame(np.full((4, 4), 1e308))
    state = EngineState.from_first_frame(np.full((4, 4), 255.0))
    assert (state.mixtures.variances[0] == VARIANCE_FLOOR).all()
    for bad in (np.nextafter(255.0, np.inf), -1e-300):
        frame = np.full((4, 4), 100.0)
        frame[1, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            process_frame(state, frame)
    assert state.k == 0


def test_frames_smaller_than_3x3_are_rejected_before_any_output(tmp_path, capsys):
    with pytest.raises(ValueError, match="at least 3x3"):
        EngineState.from_first_frame(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="at least 3x3"):
        EngineState.from_static([np.zeros((2, 5)), np.zeros((2, 5))])

    frame_dir = tmp_path / "frames"
    frame_dir.mkdir()
    for k in range(3):
        write_pgm(frame_dir / f"frame_{k:04d}.pgm", np.full((2, 2), 100, dtype=np.uint8))
    out = tmp_path / "labels"
    assert main(["segment", "--input", str(frame_dir), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "at least 3x3" in err
    assert not out.exists()


def test_read_frame_rejects_maxval_below_255(tmp_path):
    pixels = np.array([[0, 5], [10, 15]], dtype=np.uint8)
    path = tmp_path / "small.pgm"
    path.write_bytes(pgm_bytes(pixels, 15))
    with pytest.raises(PgmError, match="maxval"):
        read_frame(path)
    back, maxval = read_pgm(path)
    assert maxval == 15 and np.array_equal(back, pixels)


def test_segment_reports_small_maxval_frames(tmp_path, capsys):
    frame_dir = tiny_frames(tmp_path)
    (frame_dir / "frame_0001.pgm").write_bytes(pgm_bytes(np.full((8, 8), 7), 15))
    assert main(["segment", "--input", str(frame_dir), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "maxval" in err


@pytest.mark.parametrize("shape1, shape2", [
    ((3, 4, 5), (3, 1, 5)),
    ((3, 4, 5), (3, 4, 1)),
    ((3, 4, 5), (3, 5, 4)),
    ((3, 4, 5), (1, 4, 5)),
    ((2, 4, 5), (2, 4, 5)),
    ((3, 20), (3, 20)),
    ((3, 1, 4, 5), (3, 1, 4, 5)),
], ids=["u2-one-row", "u2-one-column", "u2-transposed", "u2-one-label", "two-labels",
        "flat", "four-axes"])
def test_hcf_rejects_potential_tables_of_other_shapes(shape1, shape2):
    prior = initial_prior()
    with pytest.raises(ValueError, match="potential tables"):
        hcf_minimize(np.zeros(shape1), np.zeros(shape2), prior)


def test_hcf_rejects_a_label_bias_of_another_size():
    u = np.zeros((3, 4, 5))
    prior = PriorParams(bias=np.zeros(1))
    with pytest.raises(ValueError, match="label bias"):
        hcf_minimize(u, u, prior)


@pytest.mark.parametrize("table, value", [
    (0, np.nan), (0, np.inf), (0, -np.inf), (1, np.nan), (1, np.inf), (1, -np.inf),
])
def test_hcf_rejects_non_finite_potential_tables(table, value):
    # NaN breaks the strict (score, site) order the sweep rests on, and an
    # infinite potential turns scores into NaN
    rng = np.random.default_rng(68)
    tables = [rng.normal(0.0, 2.0, size=(3, 8, 9)) for _ in range(2)]
    planted = rng.random(tables[table].shape) < 0.05
    tables[table][planted] = value
    with pytest.raises(ValueError, match=f"potential table u{table + 1} holds NaN or infinite"):
        hcf_minimize(*tables, initial_prior())


def test_hcf_rejects_site_potentials_that_overflow():
    u = np.full((3, 4, 5), 1e308)
    with pytest.raises(ValueError, match="overflows"):
        hcf_minimize(u, u, initial_prior())


@pytest.mark.parametrize("prior, message", [
    (PriorParams(bias=np.array([-0.5, np.nan, -0.5])), "label bias"),
    (PriorParams(bias=np.array([-np.inf, 0.0, 0.0])), "label bias"),
    (PriorParams(bias=np.full(3, -1.0 / 3.0), lambda1=np.inf), "label bias"),
    (PriorParams(bias=np.array([0.0, -1.0, 0.0]), lambda1=np.inf), "label bias"),
    (PriorParams(bias=np.full(3, -1.0 / 3.0), lambda2=np.nan), "clique weight"),
    (PriorParams(bias=np.full(3, -1.0 / 3.0), lambda2=np.inf), "clique weight"),
], ids=["bias-nan", "bias-minus-inf", "lambda1-inf", "lambda1-inf-times-zero",
        "lambda2-nan", "lambda2-inf"])
def test_hcf_rejects_a_non_finite_bias_or_clique_weight(prior, message):
    u = np.zeros((3, 4, 5))
    with pytest.raises(ValueError, match=message):
        hcf_minimize(u, u, prior)


def test_hcf_checks_its_prior_on_every_call():
    rng = np.random.default_rng(69)
    u1, u2 = rng.normal(0.0, 2.0, size=(2, 3, 5, 6))
    good = initial_prior()
    overflowing = PriorParams(bias=np.array([-1e10, -0.5, 0.0]), lambda1=1e300)
    for _ in range(2):
        assert hcf_minimize(u1, u2, good).visits >= 30
        with pytest.raises(ValueError, match="clique weight lambda2 must be finite, got nan"):
            hcf_minimize(u1, u2, PriorParams(bias=good.bias, lambda2=np.nan))
        with pytest.raises(ValueError, match=r"lambda1 \* bias must be finite, "
                                             r"got \[-inf, -5e\+299, 0\.0\]"):
            hcf_minimize(u1, u2, overflowing)


@pytest.mark.parametrize("which, bad", [
    (0, np.zeros((4, 6))),
    (2, np.zeros((5, 4))),
    (3, np.zeros((4, 5, 1))),
    (4, np.zeros(20)),
    (5, np.float64(0.0)),
    (1, np.zeros((1, 4, 5))),
], ids=["frame-wider", "edge-v-transposed", "mean-three-axes", "mean-h-flat",
        "mean-v-scalar", "edge-h-stacked"])
def test_potential_tables_reject_grids_of_other_shapes(which, bad):
    grids = [np.zeros((4, 5)) for _ in range(6)]
    grids[which] = bad
    with pytest.raises(ValueError, match="2-D grids of one shape"):
        build_potential_tables(*grids, 9.0, ShadowParams(0.5, 0.0))


def test_potential_tables_reject_grids_that_are_not_2d():
    grids = [np.zeros((2, 4, 5)) for _ in range(6)]
    with pytest.raises(ValueError, match="2-D grids of one shape"):
        build_potential_tables(*grids, 9.0, ShadowParams(0.5, 0.0))


@pytest.mark.parametrize("pooled", [0.0, -4.0, np.nan, np.inf, -np.inf,
                                    np.full((4, 5), 9.0), np.array([9.0])],
                         ids=["zero", "negative", "nan", "inf", "minus-inf", "grid", "one-value"])
def test_potential_tables_reject_a_pooled_variance_not_finite_positive_scalar(pooled):
    grids = [np.zeros((4, 5)) for _ in range(6)]
    with pytest.raises(ValueError, match="pooled variance"):
        build_potential_tables(*grids, pooled, ShadowParams(0.5, 0.0))
