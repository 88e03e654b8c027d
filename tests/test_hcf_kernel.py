"""The compiled HCF sweep against `hcf_python`, the reference loop of
`tests/oracles.py`: bit-identical labels, energy and counts. The
kernels load wherever a compiler is found; when they cannot be built, the
loader raises an OSError naming the reason."""

import os
import re
import shutil
import subprocess
import time

import numpy as np
import pytest

from oracles import (PAIR_DIRECTIONS, QVGA_SCENE, detection_tables, engine_frames, hcf_python,
                     label_counts, pair_counts, pair_term, total_energy)
from shadowseg import EngineConfig, _native
from shadowseg.energy import initial_prior
from shadowseg.optimizer import hcf_minimize
from shadowseg.synth import scene_preset


PRESETS = [("quality", EngineConfig()),
           ("recovery", EngineConfig(alpha=0.3, lambda1=2.0, lambda2=0.5))]


def assert_terms_of_its_labels(result, u1, u2, prior):
    """The sweep's energy is the oracle `total_energy` of its labels, to the
    bit, its label counts are numpy's and its pair term the oracle's."""
    expected = total_energy(result.labels, u1, u2, prior)
    assert np.float64(result.energy).tobytes() == np.float64(expected).tobytes()
    assert result.label_counts == label_counts(result.labels)
    assert result.pair == pair_term(result.labels)


def assert_same_as_python(u1, u2, prior):
    """The kernel's result, after checking it against hcf_python's."""
    fast = hcf_minimize(u1, u2, prior)
    ref = hcf_python(u1, u2, prior)
    assert np.array_equal(fast.labels, ref.labels)
    assert np.float64(fast.energy).tobytes() == np.float64(ref.energy).tobytes()
    assert (fast.label_counts, fast.pair) == (ref.label_counts, ref.pair)
    assert_terms_of_its_labels(fast, u1, u2, prior)
    assert (fast.visits, fast.relabels) == (ref.visits, ref.relabels)
    # the oracle has no spill heap, so the kernel's count is checked against a rerun
    assert hcf_minimize(u1, u2, prior).spilled == fast.spilled
    return fast


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


def tied_instances():
    """Integer potentials on a 40 x 50 grid: most sites share a handful of
    scores, so the (score, site) order alone decides between sites of one
    block, of different blocks, and between touched and untouched sites."""
    rng = np.random.default_rng(63)
    u1 = np.round(rng.normal(0.0, 1.5, size=(3, 40, 50)))
    u2 = np.round(rng.normal(0.0, 1.0, size=(3, 40, 50)))
    for lambda2 in (0.5, 1.0, 2.0):
        yield u1, u2, initial_prior(lambda1=0.0, lambda2=lambda2)


def test_tied_scores_within_blocks_across_blocks_and_across_tiers():
    for u1, u2, prior in tied_instances():
        assert_same_as_python(u1, u2, prior)


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
# bucket holds more than 32 sites, they move to an indexed heap, so a sweep
# that spills at all spills more than 32. On these grids, 85 to 530 sites
# of a sweep do.
@pytest.mark.parametrize("lambda2", [0.5, 4.0])
def test_tied_checkerboard_fills_a_bucket_past_its_cap(lambda2):
    for shape in [(30, 40), (24, 64), (40, 13)]:
        u1, u2 = checkerboard(*shape, lambda2)
        result = assert_same_as_python(u1, u2, initial_prior(lambda1=1.0, lambda2=lambda2))
        assert result.spilled > 32


def signed_zero_instances():
    """With lambda1 = 0, every bias term is a signed zero, and the planted
    -0.0 and +0.0 give scores of both signs, which (score, site) orders as
    equal."""
    rng = np.random.default_rng(65)
    for lambda2 in (0.5, 1.0, 2.0):
        u1 = np.round(rng.normal(0.0, 1.0, size=(3, 20, 30)))
        u2 = np.round(rng.normal(0.0, 1.0, size=(3, 20, 30)))
        zeros = rng.random(u1.shape) < 0.4
        u1[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        u2[zeros] = rng.choice([-0.0, 0.0], size=int(zeros.sum()))
        assert np.signbit(u1[zeros]).any() and not np.signbit(u1[zeros]).all()
        yield u1, u2, initial_prior(lambda1=0.0, lambda2=lambda2)


def test_signed_zeros_tie():
    for u1, u2, prior in signed_zero_instances():
        assert_same_as_python(u1, u2, prior)


def clamp_end_instances():
    """The frontier's buckets resolve scores from -2**WINDOW_EXP to
    -2**-WINDOW_EXP; larger and smaller magnitudes share the two end
    buckets."""
    rng = np.random.default_rng(66)
    for lambda2 in (1e-12, 1.0, 1e12):
        scale = 10.0 ** rng.uniform(-15.0, 15.0, size=(3, 20, 30))
        u1 = rng.normal(0.0, 1.0, size=(3, 20, 30)) * scale
        u2 = rng.normal(0.0, 1.0, size=(3, 20, 30)) * scale
        yield u1, u2, initial_prior(lambda1=1.0, lambda2=lambda2)


def test_scores_beyond_the_bucketed_range():
    for u1, u2, prior in clamp_end_instances():
        assert_same_as_python(u1, u2, prior)


def kernel_constant(name):
    """The value of `#define name <integer>` in the kernel source."""
    with open(_native._SOURCE) as source:
        (value,) = re.findall(rf"^#define {name} (\d+)$", source.read(), re.MULTILINE)
    return int(value)


# A mirror of the kernel's score_key and bucket_of: a score's key is the
# top 12 + SPLIT_BITS bits of its IEEE 754 pattern, reordered as the scores
# are, and there are 2**SPLIT_BITS buckets per power of two from
# -2**WINDOW_EXP up.
SPLIT_BITS, BUCKET_BITS = kernel_constant("SPLIT_BITS"), kernel_constant("BUCKET_BITS")
WINDOW_EXP = kernel_constant("WINDOW_EXP")
LAST_BUCKET = 2**BUCKET_BITS - 1
LOWEST_KEY = (2047 - (1023 + WINDOW_EXP)) << SPLIT_BITS | ((1 << SPLIT_BITS) - 1)


def score_key(score):
    u = int(np.float64(score + 0.0).view(np.uint64))
    u = ~u & (2**64 - 1) if u >> 63 else u | 1 << 63
    return u >> (52 - SPLIT_BITS)


def bucket_of(score):
    return min(max(score_key(score) - LOWEST_KEY, 0), LAST_BUCKET)


def bucket_edge(b):
    """The smallest magnitude of a negative score in bucket b - 1; smaller
    ones down to the next edge are in bucket b."""
    key = LOWEST_KEY + b - 1
    bits = (~key & (2 ** (12 + SPLIT_BITS) - 1)) << (52 - SPLIT_BITS)
    return -float(np.uint64(bits).view(np.float64))


BITMAP_BOUNDARIES = (64, 1, LAST_BUCKET)


def boundary_instances(b):
    """Scores planted around the boundary between buckets b - 1 and b.

    Each site prefers background or foreground by a gap within 2% of the
    boundary's edge; a neighbour that commits to the label it prefers
    widens the gap by the clique weight, one that commits to the other
    narrows it, so touched sites move between the buckets on either side
    and leave them empty as they are visited. At the clamp ends, b = 1 and
    LAST_BUCKET, a fifth of the gaps lie beyond the bucketed range, and at
    LAST_BUCKET a tenth are zero."""
    edge = bucket_edge(b)
    rng = np.random.default_rng(67 + b)
    for w in (edge / 1024, edge / 256, edge / 64):
        gap = edge * 1.02 ** rng.uniform(-1.0, 1.0, size=(10, 14))
        beyond = rng.random(gap.shape) < (0.2 if b in (1, LAST_BUCKET) else 0.0)
        outward = 1.0 if b == 1 else -1.0
        gap[beyond] *= 2.0 ** (outward * rng.uniform(1.0, 8.0, size=int(beyond.sum())))
        if b == LAST_BUCKET:
            gap[rng.random(gap.shape) < 0.1] = 0.0
        fg = rng.random(gap.shape) < 0.3
        u1 = np.stack([np.where(fg, gap, 0.0), gap + gap * fg, np.where(fg, 0.0, 2.0 * gap)])
        yield u1, np.zeros_like(u1), initial_prior(lambda1=0.0, lambda2=w)


# A word boundary of the frontier's bitmap, 63/64 in low, and its two
# clamp ends, 0 and LAST_BUCKET.
@pytest.mark.parametrize("b", BITMAP_BOUNDARIES, ids=["low-word", "clamp-0", "clamp-last"])
def test_scores_at_the_bitmap_word_boundaries(b):
    edge = bucket_edge(b)
    assert bucket_of(-edge) == b - 1 and bucket_of(np.nextafter(-edge, 0.0)) == b
    for u1, u2, prior in boundary_instances(b):
        assert_same_as_python(u1, u2, prior)

        rekeyed = []
        hcf_python(u1, u2, prior, rekeyed=rekeyed)
        last, moves = {}, set()
        for z, score in rekeyed:
            if z in last and last[z] != bucket_of(score):
                moves.add((last[z], bucket_of(score)))
            last[z] = bucket_of(score)
        assert any(min(move) < b <= max(move) for move in moves)
        assert {b - 1, b} <= {bucket_of(score) for _, score in rekeyed}
        if b == 1:
            assert min(score for _, score in rekeyed) < -2.0**WINDOW_EXP
        if b == LAST_BUCKET:
            assert max(score for _, score in rekeyed) > -2.0**-WINDOW_EXP


def spread_instances():
    """Potentials of widely different size: at half of the sites one label
    costs 1e17, so a middle value summed as g0 + g1 + g2 - lo - hi would
    lose the two small ones to rounding, and the key could come out
    positive."""
    rng = np.random.default_rng(69)
    for lambda2 in (0.5, 1.0, 4.0):
        for _ in range(10):
            u1 = rng.uniform(0.0, 3.0, size=(3, 5, 6))
            u2 = rng.uniform(0.0, 3.0, size=(3, 5, 6))
            rows, cols = np.nonzero(rng.random((5, 6)) < 0.5)
            u1[rng.integers(0, 3, size=rows.size), rows, cols] = 1e17
            yield u1, u2, initial_prior(lambda1=1.0, lambda2=lambda2)


def test_every_queued_key_is_at_most_zero():
    # an uncommitted site's key is its lowest potential minus its middle
    # one; a committed site's is its lowest minus its own, queued only
    # while that is negative
    for u1, u2, prior in spread_instances():
        rekeyed = []
        hcf_python(u1, u2, prior, rekeyed=rekeyed)
        assert rekeyed and max(score for _, score in rekeyed) <= 0.0
        assert_same_as_python(u1, u2, prior)


def hcf_corpora():
    """The tie, checkerboard, clamp-end, bitmap-boundary, signed-zero and
    spread-magnitude instances, as (u1, u2, prior)."""
    yield from tied_instances()
    for lambda2 in (0.5, 4.0):
        u1, u2 = checkerboard(30, 40, lambda2)
        yield u1, u2, initial_prior(lambda1=1.0, lambda2=lambda2)
    yield from clamp_end_instances()
    for b in BITMAP_BOUNDARIES:
        yield from boundary_instances(b)
    yield from signed_zero_instances()
    yield from spread_instances()


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 7), (1, 65), (2, 1), (7, 1), (65, 1),
                                   (2, 2)])
def test_energy_terms_and_counts_of_thin_and_square_grids(shape):
    rng = np.random.default_rng(68)
    for i in range(8):
        u1 = rng.normal(0.0, 2.0, size=(3, *shape))
        u2 = rng.normal(0.0, 2.0, size=(3, *shape))
        if i % 2:
            u1, u2 = np.round(u1), np.round(u2)
        prior = initial_prior(lambda1=float(rng.uniform(0, 3)), lambda2=[0.0, 0.5, 2.0][i % 3])
        assert_same_as_python(u1, u2, prior)


@pytest.mark.parametrize("label", [1, 2, 3])
def test_energy_terms_and_counts_of_single_label_grids(label):
    # every site prefers `label` by far: no pair disagrees
    for shape in [(1, 9), (9, 1), (2, 2), (17, 23)]:
        u1 = np.full((3, *shape), 10.0)
        u1[label - 1] = 0.0
        u2 = np.zeros_like(u1)
        result = assert_same_as_python(u1, u2, initial_prior(lambda1=1.0, lambda2=1.0))
        sites = [0, 0, 0]
        sites[label - 1] = u1[0].size
        assert result.label_counts == tuple(sites)
        assert result.pair == 0.0


def test_energy_terms_and_counts_of_unit_checkerboards():
    # with no smoothness, labels 1 and 3 alternate site by site: every axial
    # pair disagrees and no diagonal one does
    for h, w in [(1, 8), (8, 1), (2, 2), (9, 14)]:
        black = np.add.outer(np.arange(h), np.arange(w)) % 2 == 1
        u1 = np.zeros((3, h, w))
        u1[0][black] = 1.0
        u1[2][~black] = 1.0
        u1[1] = 2.0
        result = assert_same_as_python(u1, np.zeros_like(u1), initial_prior(lambda2=0.0))
        assert np.array_equal(result.labels, np.where(black, 3, 1))
        assert result.label_counts == (int((~black).sum()), 0, int(black.sum()))
        assert result.pair == h * (w - 1) + (h - 1) * w


def pair_term_instances(source):
    """The instances of the pair term test: the engine's frames of a
    preset or at 320x240, or random tables on grids where some directions
    have no pairs (1 x N, N x 1) or only a few (3 x 3)."""
    if source == "random":
        rng = np.random.default_rng(69)
        for shape in [(1, 2), (1, 9), (2, 1), (9, 1), (3, 3)]:
            for lambda2 in (0.0, 0.5, 2.0):
                u1 = rng.normal(0.0, 2.0, size=(3, *shape))
                u2 = rng.normal(0.0, 2.0, size=(3, *shape))
                yield u1, u2, initial_prior(lambda1=float(rng.uniform(0, 3)), lambda2=lambda2)
        return
    if source == "qvga":
        frames = engine_frames(QVGA_SCENE, EngineConfig(), n_labeled=2)
    else:
        frames = engine_frames(scene_preset(source), dict(PRESETS)[source])
    for state, frame in frames:
        yield (*detection_tables(state, frame), state.prior)


@pytest.mark.parametrize("source", ["quality", "recovery", "qvga", "random"])
def test_pair_term_is_the_oracle_sum_over_its_pair_counts(source):
    disagreeing = 0
    for u1, u2, prior in pair_term_instances(source):
        result = hcf_minimize(u1, u2, prior)
        counts = pair_counts(result.labels)
        expected = 0.0
        for count, (_, _, d2) in zip(counts, PAIR_DIRECTIONS):
            expected += count / d2
        assert np.float64(result.pair).tobytes() == np.float64(expected).tobytes()
        height, width = result.labels.shape
        if height == 1:
            assert counts[1:] == (0, 0, 0)
        if width == 1:
            assert counts[0] == counts[2] == counts[3] == 0
        disagreeing += expected > 0
    assert disagreeing > 0


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


@pytest.mark.parametrize("preset, config", PRESETS)
def test_engine_instances_of_the_presets(preset, config):
    for state, frame in engine_frames(scene_preset(preset), config):
        assert_same_as_python(*detection_tables(state, frame), state.prior)


def test_engine_instances_at_320x240():
    # ties on real frames fill a bucket past its cap too: 1,600 and 1,860
    # sites of the two sweeps move to the heap
    for state, frame in engine_frames(QVGA_SCENE, EngineConfig(), n_labeled=2):
        result = assert_same_as_python(*detection_tables(state, frame), state.prior)
        assert result.spilled > 32


def test_kernel_loads_wherever_a_compiler_is_found():
    assert _native.library() is not None


def test_kernel_source_compiles_without_warnings():
    # stricter than the build itself, whose flags also key the cached
    # library; -fopenmp-simd gives the source's `omp simd` pragmas a meaning
    proc = subprocess.run(["cc", "-fsyntax-only", "-std=c99", "-fopenmp-simd", "-Wall", "-Wextra",
                           "-Wpedantic", "-Werror", _native._SOURCE],
                          capture_output=True, text=True, check=False)
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

    # a changed source gets a new build, which replaces the old one; the
    # temporary file of a concurrent build stays
    pending = tmp_path / f"{built[0]}.1.tmp"
    pending.write_bytes(b"")
    with open(source, "a") as fh:
        fh.write("/* another revision */\n")
    assert _native._load(str(source)) is not None
    rebuilt = sorted(p.name for p in tmp_path.glob("*.so"))
    assert len(rebuilt) == 1 and rebuilt[0] != built[0] and rebuilt[0].startswith("_native-")
    assert pending.exists()


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
