"""The compiled HCF sweep against `hcf_python`, the reference loop of
`tests/oracles.py`: bit-identical labels, energy, counts and traces. The
kernels load wherever a compiler is found; when they cannot be built, the
loader raises an OSError naming the reason."""

import os
import shutil
import subprocess
import time

import numpy as np
import pytest

from oracles import QVGA_SCENE, engine_frames, hcf_python
from shadowseg import EngineConfig, _native, detection_potentials
from shadowseg.energy import initial_prior
from shadowseg.optimizer import hcf_minimize
from shadowseg.synth import scene_preset


def assert_same_as_python(u1, u2, prior):
    fast = hcf_minimize(u1, u2, prior, trace=True)
    ref = hcf_python(u1, u2, prior, trace=True)
    assert np.array_equal(fast.labels, ref.labels)
    assert np.float64(fast.energy).tobytes() == np.float64(ref.energy).tobytes()
    assert (fast.visits, fast.commits, fast.relabels) == (ref.visits, ref.commits, ref.relabels)
    assert [kind for kind, _ in fast.trace] == [kind for kind, _ in ref.trace]
    assert (np.array([e for _, e in fast.trace]).tobytes()
            == np.array([e for _, e in ref.trace]).tobytes())

    untraced = hcf_minimize(u1, u2, prior)
    assert untraced.trace is None
    assert np.array_equal(untraced.labels, ref.labels)
    assert (untraced.visits, untraced.relabels) == (ref.visits, ref.relabels)


def test_criterion_1_to_3_instances():
    # the instance streams of acceptance criteria 1, 2 and 3
    rng = np.random.default_rng(3)
    shapes = [(1, 1), (1, 4), (2, 2), (2, 3), (3, 3), (2, 4), (1, 6), (2, 5)]
    for i in range(200):
        h, w = shapes[i % len(shapes)]
        u1 = rng.normal(0.0, 3.0, size=(3, h, w))
        u2 = rng.normal(0.0, 3.0, size=(3, h, w))
        assert_same_as_python(u1, u2, initial_prior(lambda1=float(rng.uniform(0, 5)),
                                                    lambda2=0.0))
    rng = np.random.default_rng(11)
    for _ in range(100):
        u1 = rng.normal(0.0, 2.0, size=(3, 8, 8))
        u2 = rng.normal(0.0, 2.0, size=(3, 8, 8))
        assert_same_as_python(u1, u2, initial_prior(lambda1=float(rng.uniform(0, 3)),
                                                    lambda2=float(rng.uniform(0.1, 4.0))))
    rng = np.random.default_rng(13)
    for _ in range(50):
        u1 = rng.normal(0.0, 1.0, size=(3, 3, 3))
        u2 = rng.normal(0.0, 1.0, size=(3, 3, 3))
        assert_same_as_python(u1, u2, initial_prior(lambda1=float(rng.uniform(0, 2)),
                                                    lambda2=1.0))
    rng = np.random.default_rng(47)
    for _ in range(60):
        h, w = rng.integers(4, 9, size=2)
        u1 = rng.normal(0.0, 2.0, size=(3, h, w))
        u2 = rng.normal(0.0, 2.0, size=(3, h, w))
        assert_same_as_python(u1, u2, initial_prior(lambda1=float(rng.uniform(0, 3)),
                                                    lambda2=float(rng.uniform(0.5, 4.0))))


def test_seeded_corpus_with_ties_and_thin_grids():
    rng = np.random.default_rng(60)
    shapes = [(1, 1), (1, 2), (1, 9), (7, 1), (2, 2), (5, 6), (9, 4), (12, 11)]
    for i in range(400):
        h, w = shapes[i % len(shapes)]
        u1 = rng.normal(0.0, 2.0, size=(3, h, w))
        u2 = rng.normal(0.0, 2.0, size=(3, h, w))
        if i % 3 == 0:
            # rounded potentials: many tied scores and tied labels
            u1, u2 = np.round(u1), np.round(2.0 * u2) / 2.0
        lambda2 = 0.0 if i % 5 == 0 else float(rng.choice([0.5, 1.0, 2.0, rng.uniform(0, 4)]))
        assert_same_as_python(u1, u2, initial_prior(lambda1=float(rng.uniform(0, 3)),
                                                    lambda2=lambda2))


@pytest.mark.parametrize("shape", [(64, 64), (240, 320)])
def test_frame_sized_instances(shape):
    rng = np.random.default_rng(61)
    u1 = rng.normal(0.0, 2.0, size=(3, *shape))
    u2 = rng.normal(0.0, 2.0, size=(3, *shape))
    assert_same_as_python(u1, u2, initial_prior(lambda1=1.0, lambda2=2.0))


# The kernel's queue keeps sites no neighbour update has touched in blocks
# of 64 consecutive sites; these grids end on, just before and just after
# a block boundary, or run along a single row or column.
@pytest.mark.parametrize("shape", [(7, 9), (8, 8), (5, 13), (1, 127), (8, 16), (3, 43),
                                   (1, 200), (200, 1)])
def test_grids_around_block_boundaries(shape):
    rng = np.random.default_rng(62)
    for i in range(6):
        u1 = rng.normal(0.0, 2.0, size=(3, *shape))
        u2 = rng.normal(0.0, 2.0, size=(3, *shape))
        if i % 2:
            u1, u2 = np.round(u1), np.round(u2)
        assert_same_as_python(u1, u2, initial_prior(lambda1=float(rng.uniform(0, 3)),
                                                    lambda2=[0.5, 1.0, 3.0][i % 3]))


def test_tied_scores_within_blocks_across_blocks_and_across_tiers():
    # integer potentials on a 40 x 50 grid: most sites share a handful of
    # scores, so the (score, site) order alone decides between sites of
    # one block, of different blocks, and between touched and untouched
    # sites
    rng = np.random.default_rng(63)
    u1 = np.round(rng.normal(0.0, 1.5, size=(3, 40, 50)))
    u2 = np.round(rng.normal(0.0, 1.0, size=(3, 40, 50)))
    for lambda2 in (0.5, 1.0, 2.0):
        assert_same_as_python(u1, u2, initial_prior(lambda1=0.0, lambda2=lambda2))


@pytest.mark.parametrize("lambda2", [0.0, 0.25])
def test_weak_coupling_empties_the_frontier(lambda2):
    # with little or no pull between neighbours, touched sites rarely come
    # first, so visits keep switching back to the untouched sites
    rng = np.random.default_rng(64)
    for shape in [(1, 130), (9, 15), (30, 40)]:
        u1 = rng.normal(0.0, 2.0, size=(3, *shape))
        u2 = rng.normal(0.0, 2.0, size=(3, *shape))
        assert_same_as_python(u1, u2, initial_prior(lambda1=1.0, lambda2=lambda2))
        assert_same_as_python(np.round(u1), np.round(u2),
                              initial_prior(lambda1=1.0, lambda2=lambda2))


def checkerboard(height, width, lambda2):
    """Tables under which every site prefers background or foreground, in
    a checkerboard of 4 x 4 squares, by the same gap of 2 * lambda2: every
    initial score ties, and so do many scores after each commit."""
    gap = 2.0 * lambda2
    black = np.add.outer(np.arange(height) // 4, np.arange(width) // 4) % 2 == 1
    u1 = np.zeros((3, height, width))
    u1[0][black] = gap
    u1[2][~black] = gap
    u1[1] = 2.0 * gap
    return u1, np.zeros_like(u1)


# The frontier keeps sites in buckets of nearby scores; once the lowest
# bucket holds more than 32 sites, they move to an indexed heap. On these
# grids, 85 to 530 sites of a sweep do.
@pytest.mark.parametrize("lambda2", [0.5, 4.0])
def test_tied_checkerboard_fills_a_bucket_past_its_cap(lambda2):
    for shape in [(30, 40), (24, 64), (40, 13)]:
        u1, u2 = checkerboard(*shape, lambda2)
        assert_same_as_python(u1, u2, initial_prior(lambda1=1.0, lambda2=lambda2))


def test_signed_zeros_tie():
    # with lambda1 = 0, every bias term is a signed zero, and the planted
    # -0.0 and +0.0 give scores of both signs, which (score, site) orders
    # as equal
    rng = np.random.default_rng(65)
    for lambda2 in (0.5, 1.0, 2.0):
        u1 = np.round(rng.normal(0.0, 1.0, size=(3, 20, 30)))
        u2 = np.round(rng.normal(0.0, 1.0, size=(3, 20, 30)))
        zeros = rng.random(u1.shape) < 0.4
        u1[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        u2[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        assert np.signbit(u1[zeros]).any() and not np.signbit(u1[zeros]).all()
        assert_same_as_python(u1, u2, initial_prior(lambda1=0.0, lambda2=lambda2))


def test_scores_beyond_the_bucketed_range():
    # the frontier's buckets resolve scores from -2**32 to -2**-32; larger
    # and smaller magnitudes share the two end buckets
    rng = np.random.default_rng(66)
    for lambda2 in (1e-12, 1.0, 1e12):
        scale = 10.0 ** rng.uniform(-15.0, 15.0, size=(3, 20, 30))
        u1 = rng.normal(0.0, 1.0, size=(3, 20, 30)) * scale
        u2 = rng.normal(0.0, 1.0, size=(3, 20, 30)) * scale
        assert_same_as_python(u1, u2, initial_prior(lambda1=1.0, lambda2=lambda2))


def test_hcf_rejects_a_grid_of_2_31_sites():
    # zero-strided views: a copy of either table would take 48 GiB
    u = np.broadcast_to(0.0, (3, 2**16, 2**15))
    with pytest.raises(ValueError, match="too large"):
        hcf_minimize(u, u, initial_prior())


@pytest.mark.parametrize("lambda2", [0.5, 4.0])
def test_tied_sweep_time_grows_linearly(lambda2):
    # a frontier that scanned every tied site of its lowest bucket at each
    # visit would take about 16 times as long on 4 times the sites; the
    # fastest of 3 runs each, the two sizes alternating so that a slow
    # stretch of the machine slows both
    prior = initial_prior(lambda1=1.0, lambda2=lambda2)
    grids = [checkerboard(*shape, lambda2) for shape in [(240, 320), (480, 640)]]
    fastest = [float("inf")] * 2
    for _ in range(3):
        for i, (u1, u2) in enumerate(grids):
            start = time.perf_counter()
            hcf_minimize(u1, u2, prior)
            fastest[i] = min(fastest[i], time.perf_counter() - start)
    assert fastest[1] / fastest[0] < 6.5


@pytest.mark.parametrize("preset, config", [
    ("quality", EngineConfig()),
    ("recovery", EngineConfig(alpha=0.3, lambda1=2.0, lambda2=0.5)),
])
def test_engine_instances_of_the_presets(preset, config):
    for state, frame in engine_frames(scene_preset(preset), config):
        assert_same_as_python(*detection_potentials(state, frame), state.prior)


def test_engine_instances_at_320x240():
    for state, frame in engine_frames(QVGA_SCENE, EngineConfig(), n_labeled=2):
        assert_same_as_python(*detection_potentials(state, frame), state.prior)


def test_kernel_loads_wherever_a_compiler_is_found():
    assert _native.library() is not None


def test_kernel_source_compiles_without_warnings():
    # stricter than the build itself, whose flags also key the cached library
    proc = subprocess.run(["cc", "-fsyntax-only", "-std=c99", "-Wall", "-Wextra", "-Wpedantic",
                           "-Werror", _native._SOURCE], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


def test_kernel_is_built_once_next_to_its_source(tmp_path):
    source = tmp_path / "_native.c"
    shutil.copy(_native._SOURCE, source)
    assert _native._load(str(source)) is not None
    built = sorted(p.name for p in tmp_path.iterdir() if p.name != "_native.c")
    assert len(built) == 1 and built[0].startswith("_native-") and built[0].endswith(".so")
    stamp = os.stat(tmp_path / built[0]).st_mtime_ns
    assert _native._load(str(source)) is not None
    assert os.stat(tmp_path / built[0]).st_mtime_ns == stamp


def test_loader_gives_up_without_source_or_compiler(tmp_path, monkeypatch):
    with pytest.raises(OSError, match="missing.c"):
        _native._load(str(tmp_path / "missing.c"))
    source = tmp_path / "_native.c"
    shutil.copy(_native._SOURCE, source)
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with pytest.raises(OSError, match="cc is not on PATH"):
        _native._load(str(source))
    assert [p.name for p in tmp_path.iterdir()] == ["_native.c"]


def test_loader_warns_with_the_compiler_error(tmp_path):
    source = tmp_path / "_native.c"
    source.write_text("#error this source does not build\n")
    with pytest.raises(OSError, match="cc exited with code 1: .*this source does not build"):
        _native._load(str(source))
    assert [p.name for p in tmp_path.iterdir()] == ["_native.c"]
