"""The compiled HCF sweep against the Python reference loop: bit-identical
labels, energy, counts and traces; the kernels load wherever a compiler is
found, warn once when they cannot, and the engine then gives the same
output."""

import os
import shutil
import subprocess
import warnings

import numpy as np
import pytest

from shadowseg import EngineConfig, EngineState, _native, detection_potentials, process_frame
from shadowseg.energy import initial_prior
from shadowseg.optimizer import _hcf_python, hcf_minimize
from shadowseg.synth import SynthScene, render_scene, scene_preset


@pytest.fixture
def compiled():
    if _native.library() is None:
        pytest.skip("the HCF kernel is not built here (no C compiler)")


def assert_same_as_python(u1, u2, prior):
    fast = hcf_minimize(u1, u2, prior, trace=True)
    ref = _hcf_python(u1, u2, prior, trace=True)
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


def test_criterion_1_to_3_instances(compiled):
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


def test_seeded_corpus_with_ties_and_thin_grids(compiled):
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
def test_frame_sized_instances(compiled, shape):
    rng = np.random.default_rng(61)
    u1 = rng.normal(0.0, 2.0, size=(3, *shape))
    u2 = rng.normal(0.0, 2.0, size=(3, *shape))
    assert_same_as_python(u1, u2, initial_prior(lambda1=1.0, lambda2=2.0))


# The kernel's queue keeps sites no neighbour update has touched in blocks
# of 64 consecutive sites; these grids end on, just before and just after
# a block boundary, or run along a single row or column.
@pytest.mark.parametrize("shape", [(7, 9), (8, 8), (5, 13), (1, 127), (8, 16), (3, 43),
                                   (1, 200), (200, 1)])
def test_grids_around_block_boundaries(compiled, shape):
    rng = np.random.default_rng(62)
    for i in range(6):
        u1 = rng.normal(0.0, 2.0, size=(3, *shape))
        u2 = rng.normal(0.0, 2.0, size=(3, *shape))
        if i % 2:
            u1, u2 = np.round(u1), np.round(u2)
        assert_same_as_python(u1, u2, initial_prior(lambda1=float(rng.uniform(0, 3)),
                                                    lambda2=[0.5, 1.0, 3.0][i % 3]))


def test_tied_scores_within_blocks_across_blocks_and_across_tiers(compiled):
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
def test_weak_coupling_empties_the_frontier(compiled, lambda2):
    # with little or no pull between neighbours, touched sites rarely come
    # first, so visits keep switching back to the untouched sites
    rng = np.random.default_rng(64)
    for shape in [(1, 130), (9, 15), (30, 40)]:
        u1 = rng.normal(0.0, 2.0, size=(3, *shape))
        u2 = rng.normal(0.0, 2.0, size=(3, *shape))
        assert_same_as_python(u1, u2, initial_prior(lambda1=1.0, lambda2=lambda2))
        assert_same_as_python(np.round(u1), np.round(u2),
                              initial_prior(lambda1=1.0, lambda2=lambda2))


def engine_instances(scene, config, n_labeled=None):
    """(u1, u2, prior) of each labeled frame of `scene`, as the engine
    builds them after a static bootstrap."""
    frames, _ = render_scene(scene, seed=0)
    state = EngineState.from_static(frames[:scene.lead_in], config)
    for frame in frames[scene.lead_in:][:n_labeled]:
        u1, u2 = detection_potentials(state, frame)
        yield u1, u2, state.prior
        process_frame(state, frame)


@pytest.mark.parametrize("preset, config", [
    ("quality", EngineConfig()),
    ("recovery", EngineConfig(alpha=0.3, lambda1=2.0, lambda2=0.5)),
])
def test_engine_instances_of_the_presets(compiled, preset, config):
    for u1, u2, prior in engine_instances(scene_preset(preset), config):
        assert_same_as_python(u1, u2, prior)


def test_engine_instances_at_320x240(compiled):
    scene = SynthScene(height=240, width=320, n_frames=7, lead_in=5,
                       object_size=(52, 52), shadow_size=(52, 52), shadow_offset=(60, 0),
                       start=(24, 16), step=(0, 8), gain=0.5, offset=0.0)
    for u1, u2, prior in engine_instances(scene, EngineConfig(), n_labeled=2):
        assert_same_as_python(u1, u2, prior)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_loads_wherever_a_compiler_is_found():
    assert _native.library() is not None


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_source_compiles_without_warnings():
    # stricter than the build itself, whose flags also key the cached library
    proc = subprocess.run(["cc", "-fsyntax-only", "-std=c99", "-Wall", "-Wextra", "-Wpedantic",
                           "-Werror", _native._SOURCE], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
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
    with pytest.warns(RuntimeWarning, match="missing.c"):
        assert _native._load(str(tmp_path / "missing.c")) is None
    source = tmp_path / "_native.c"
    shutil.copy(_native._SOURCE, source)
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    with pytest.warns(RuntimeWarning, match="cc is not on PATH"):
        assert _native._load(str(source)) is None
    assert [p.name for p in tmp_path.iterdir()] == ["_native.c"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_loader_warns_with_the_compiler_error(tmp_path):
    source = tmp_path / "_native.c"
    source.write_text("#error this source does not build\n")
    with pytest.warns(RuntimeWarning, match="cc exited with code 1: .*this source does not build"):
        assert _native._load(str(source)) is None
    assert [p.name for p in tmp_path.iterdir()] == ["_native.c"]


def test_library_warns_once_per_process(tmp_path, monkeypatch):
    monkeypatch.setattr(_native, "_SOURCE", str(tmp_path / "missing.c"))
    _native.library.cache_clear()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _native.library() is None
            assert _native.library() is None
    finally:
        _native.library.cache_clear()
    assert [type(w.message) for w in caught] == [RuntimeWarning]


def test_process_frame_is_unchanged_when_the_kernel_cannot_load(tmp_path, monkeypatch):
    scene = scene_preset("quality")
    frames, _ = render_scene(scene, seed=0)
    frames = frames[:scene.lead_in + 4]
    config = EngineConfig(alpha=0.05)

    def run():
        outputs = []
        for state in (EngineState.from_static(frames[:scene.lead_in], config),
                      EngineState.from_first_frame(frames[0], config)):
            for frame in frames[scene.lead_in:]:
                labels, diag = process_frame(state, frame)
                models = [state.mixtures.weights, state.mixtures.means,
                          state.mixtures.variances, state.background.mean,
                          state.background.variance]
                outputs.append((labels, diag, [m.tobytes() for m in models]))
        return outputs

    default = run()
    with pytest.warns(RuntimeWarning):
        off = _native._load(str(tmp_path / "missing.c"))
    monkeypatch.setattr(_native, "library", lambda: off)
    fallback = run()
    assert len(default) == len(fallback) == 8
    for (labels, diag, models), (ref_labels, ref_diag, ref_models) in zip(default, fallback):
        assert np.array_equal(labels, ref_labels)
        assert diag == ref_diag
        assert models == ref_models
