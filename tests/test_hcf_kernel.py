"""The compiled HCF sweep against the Python reference loop: bit-identical
labels, energy, counts and traces; it loads wherever a compiler is found,
and the engine gives the same output when it cannot be loaded."""

import os
import shutil

import numpy as np
import pytest

from shadowseg import EngineConfig, EngineState, optimizer, process_frame
from shadowseg.energy import initial_prior
from shadowseg.optimizer import _hcf_python, hcf_minimize
from shadowseg.synth import render_scene, scene_preset


@pytest.fixture
def compiled():
    if optimizer._kernel() is None:
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


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_loads_wherever_a_compiler_is_found():
    assert optimizer._kernel() is not None


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_is_built_once_next_to_its_source(tmp_path):
    source = tmp_path / "_hcf.c"
    shutil.copy(optimizer._SOURCE, source)
    assert optimizer._load_kernel(str(source)) is not None
    built = sorted(p.name for p in tmp_path.iterdir() if p.name != "_hcf.c")
    assert len(built) == 1 and built[0].startswith("_hcf-") and built[0].endswith(".so")
    stamp = os.stat(tmp_path / built[0]).st_mtime_ns
    assert optimizer._load_kernel(str(source)) is not None
    assert os.stat(tmp_path / built[0]).st_mtime_ns == stamp


def test_loader_gives_up_without_source_or_compiler(tmp_path, monkeypatch):
    assert optimizer._load_kernel(str(tmp_path / "missing.c")) is None
    source = tmp_path / "_hcf.c"
    shutil.copy(optimizer._SOURCE, source)
    monkeypatch.setenv("PATH", str(tmp_path / "no-bin"))
    assert optimizer._load_kernel(str(source)) is None
    assert [p.name for p in tmp_path.iterdir()] == ["_hcf.c"]


def test_process_frame_is_unchanged_when_the_kernel_cannot_load(tmp_path, monkeypatch):
    scene = scene_preset("quality")
    frames, _ = render_scene(scene, seed=0)
    frames = frames[:scene.lead_in + 4]

    def run():
        state = EngineState.from_static(frames[:scene.lead_in], EngineConfig(alpha=0.05))
        return [process_frame(state, f) for f in frames[scene.lead_in:]]

    default = run()
    monkeypatch.setattr(optimizer, "_kernel",
                        lambda: optimizer._load_kernel(str(tmp_path / "missing.c")))
    fallback = run()
    for (labels, diag), (ref_labels, ref_diag) in zip(default, fallback):
        assert np.array_equal(labels, ref_labels)
        assert diag == ref_diag
