"""The vectorized pixel loops of `mixture_select`, `potential_tables` and
`central_differences` against the scalar oracles of `tests/oracles.py`
and against the same source built without -fopenmp-simd, where the
compiler leaves those loops scalar. Odd pixel counts and widths end on
the vectorized loop's scalar epilogue. With GCC, a compile report must
also show all four loops vectorized."""

import ctypes
import re
import subprocess

import numpy as np
import pytest

import oracles
from oracles import (BENCHMARK_WORKLOADS, detection_arguments, engine_frames, pixel,
                     select_background)
from shadowseg import _native
from shadowseg.background import MixtureGrid
from shadowseg.edge import frame_edges
from shadowseg.likelihood import build_potential_tables
from shadowseg.shadow import Y_MAX, ShadowParams

ODD_COUNTS = (1, 3, 63, 65)
# variances whose square roots are exact, so that planted ranks tie exactly
EXACT_VARIANCES = np.array([4.0, 9.0, 16.0, 25.0, 100.0, 900.0])


@pytest.fixture(scope="module")
def scalar(tmp_path_factory):
    """The kernels built without -fopenmp-simd: scalar pixel loops."""
    library = tmp_path_factory.mktemp("scalar") / "_native-scalar.so"
    flags = [flag for flag in _native._CFLAGS if flag != "-fopenmp-simd"]
    proc = subprocess.run(["cc", *flags, "-o", str(library), _native._SOURCE],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    lib = ctypes.CDLL(str(library))
    for name, (argtypes, restype) in _native._SIGNATURES.items():
        getattr(lib, name).argtypes = argtypes
        getattr(lib, name).restype = restype
    return lib


def simd_loops(source: str) -> list[tuple[int, int]]:
    """The first and last line of each loop under `#pragma omp simd`: from
    the pragma to the brace that closes its `for`, at the `for`'s indent."""
    with open(source) as fh:
        lines = fh.read().splitlines()
    loops = []
    for start, line in enumerate(lines, 1):
        if line.strip() == "#pragma omp simd":
            loop = lines[start]
            close = loop[:len(loop) - len(loop.lstrip())] + "}"
            loops.append((start, next(i for i in range(start + 1, len(lines) + 1)
                                      if lines[i - 1] == close)))
    return loops


def test_gcc_vectorizes_every_omp_simd_loop(tmp_path):
    # the same bytes come out of a loop the compiler leaves scalar, so only
    # the compiler's report shows that a pixel loop still vectorizes
    version = subprocess.run(["cc", "--version"], capture_output=True, text=True, check=False)
    if "Free Software Foundation" not in version.stdout:
        pytest.skip("cc is not GCC, whose -fopt-info reports this test reads")
    proc = subprocess.run(["cc", *_native._CFLAGS, "-fopt-info-vec-optimized",
                           "-o", str(tmp_path / "_native.so"), _native._SOURCE],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    vectorized = [int(line) for line in
                  re.findall(r"_native\.c:(\d+):\d+: optimized: loop vectorized", proc.stderr)]
    loops = simd_loops(_native._SOURCE)
    assert len(loops) == 4
    for first, last in loops:
        assert any(first <= line <= last for line in vectorized), (first, proc.stderr)


def on(lib, monkeypatch, fn, *args):
    """fn(*args) with the engine's kernels taken from `lib`."""
    with monkeypatch.context() as patch:
        patch.setattr(_native, "library", lambda: lib)
        return fn(*args)


def same_bytes(arrays, others) -> bool:
    return [a.tobytes() for a in arrays] == [b.tobytes() for b in others]


def astuple(bg):
    return bg.mean, bg.variance


def tied_mixtures(rng, n):
    """(3, 1, n) mixtures whose ranks weight/stddev tie at planted pixels:
    lanes 0 and 1, 0 and 2, 1 and 2, all three, or lane 2 at twice lane 0's
    weight and four times its variance."""
    weights = rng.dirichlet(np.ones(3), size=n).T.reshape(3, 1, n).copy()
    means = np.round(rng.uniform(0, 255, size=(3, 1, n)))
    variances = rng.choice(EXACT_VARIANCES, size=(3, 1, n))
    kind = np.arange(n) % 6
    for k, (a, b) in enumerate(((0, 1), (0, 2), (1, 2)), start=1):
        weights[b, 0, kind == k] = weights[a, 0, kind == k]
        variances[b, 0, kind == k] = variances[a, 0, kind == k]
    weights[:, 0, kind == 4] = weights[0, 0, kind == 4]
    variances[:, 0, kind == 4] = variances[0, 0, kind == 4]
    weights[2, 0, kind == 5] = 2.0 * weights[0, 0, kind == 5]
    variances[2, 0, kind == 5] = 4.0 * variances[0, 0, kind == 5]
    return weights, means, variances


def oracle_selection(grid: MixtureGrid, pixels) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's background mean and variance at each (row, col) of `pixels`."""
    chosen = np.array([select_background(pixel(grid, r, c)) for r, c in pixels])
    return chosen[:, 0], chosen[:, 1]


@pytest.mark.parametrize("n", ODD_COUNTS)
def test_selection_of_odd_pixel_counts_with_planted_ties(n, scalar, monkeypatch):
    rng = np.random.default_rng(200 + n)
    for _ in range(4):
        grid = MixtureGrid(*tied_mixtures(rng, n))
        bg = grid.select_background()
        mean, variance = oracle_selection(grid, [(0, c) for c in range(n)])
        assert same_bytes((bg.mean[0], bg.variance[0]), (mean, variance))
        assert same_bytes((bg.mean, bg.variance),
                          on(scalar, monkeypatch, lambda: astuple(grid.select_background())))


def kernel_selection(lib, weights, means, variances):
    """`mixture_select` of `lib` on C-ordered (3, H, W) lanes, called
    directly: `MixtureGrid` rejects the NaN, infinite, negative and zero
    values planted here."""
    mean, variance = np.empty(means.shape[1:]), np.empty(means.shape[1:])
    lib.mixture_select(weights.ctypes.data, means.ctypes.data, variances.ctypes.data,
                       mean.size, mean.ctypes.data, variance.ctypes.data)
    return mean, variance


def test_selection_keeps_the_scalar_loops_nan_and_infinity(scalar):
    # the oracle starts from rank -inf, the kernels from lane 0's rank, so
    # only the scalar loop speaks for NaN ranks
    rng = np.random.default_rng(210)
    weights, means, variances = tied_mixtures(rng, 65)
    specials = [np.nan, np.inf, -1.0, 0.0]
    for lane in (weights, variances):
        at = rng.random(lane.shape) < 0.15
        lane[at] = rng.choice(specials, size=int(at.sum()))
    mean, variance = kernel_selection(_native.library(), weights, means, variances)
    assert np.isnan(variance).any()
    assert same_bytes((mean, variance), kernel_selection(scalar, weights, means, variances))


def clamp_edges(rng, n):
    """Edges around the foreground density's floor, |e| = Y_MAX - 0.1, and
    at and beyond +-Y_MAX, of both signs, among ordinary ones."""
    edge = Y_MAX - 0.1
    near = [edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf), Y_MAX,
            np.nextafter(Y_MAX, 0.0), np.nextafter(Y_MAX, np.inf), 2.0 * Y_MAX]
    values = rng.uniform(-60.0, 60.0, size=(1, n))
    at = rng.random((1, n)) < 0.6
    values[at] = rng.choice(near, size=int(at.sum())) * rng.choice([-1.0, 1.0], size=int(at.sum()))
    return values


@pytest.mark.parametrize("n", ODD_COUNTS)
def test_tables_of_odd_pixel_counts_at_the_density_floor(n, scalar, monkeypatch):
    rng = np.random.default_rng(220 + n)
    for gain, offset, pooled in ((0.6, 5.0, 25.0), (1.0, 0.0, 4.0), (0.1, -12.5, 900.0)):
        args = (rng.uniform(0, Y_MAX, size=(1, n)), clamp_edges(rng, n), clamp_edges(rng, n),
                rng.uniform(0, Y_MAX, size=(1, n)), *rng.uniform(-20, 20, size=(2, 1, n)),
                pooled, ShadowParams(gain=gain, offset=offset))
        tables = build_potential_tables(*args)
        assert same_bytes(tables, oracles.potential_tables(*args, Y_MAX))
        assert same_bytes(tables, on(scalar, monkeypatch, build_potential_tables, *args))


def test_tables_keep_the_scalar_loops_nan_and_infinity(scalar, monkeypatch):
    rng = np.random.default_rng(230)
    grids = [rng.uniform(-60.0, 60.0, size=(5, 13)) for _ in range(6)]
    for grid in grids:
        at = rng.random(grid.shape) < 0.2
        grid[at] = rng.choice([np.nan, np.inf, -np.inf], size=int(at.sum()))
    args = (*grids, 16.0, ShadowParams(gain=0.6, offset=5.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        tables = build_potential_tables(*args)
        assert same_bytes(tables, on(scalar, monkeypatch, build_potential_tables, *args))
        # the oracle too, whose np.maximum(t, floor) keeps a NaN edge's NaN
        assert same_bytes(tables, oracles.potential_tables(*args, Y_MAX))


@pytest.mark.parametrize("width", (3, 4, 5, 65))
def test_edges_of_odd_and_even_widths(width, scalar, monkeypatch):
    rng = np.random.default_rng(250 + width)
    for height in (3, 4, 7):
        frame = rng.uniform(0, Y_MAX, size=(height, width))
        frame[rng.random(frame.shape) < 0.1] = np.nan
        edges = frame_edges(frame)
        assert same_bytes(edges, oracles.frame_edges(frame))
        assert same_bytes(edges, on(scalar, monkeypatch, frame_edges, frame))


@pytest.mark.parametrize("workload", sorted(BENCHMARK_WORKLOADS))
def test_every_engine_instance_of_the_benchmark_scenes(workload, scalar, monkeypatch):
    for state, frame in engine_frames(**BENCHMARK_WORKLOADS[workload], seed=1):
        args = detection_arguments(state, frame)
        assert same_bytes(args[1:3], oracles.frame_edges(frame))
        assert same_bytes(args[4:6], oracles.frame_edges(state.background.mean))
        tables = build_potential_tables(*args)
        assert same_bytes(tables, oracles.potential_tables(*args, Y_MAX))
        assert same_bytes(tables, on(scalar, monkeypatch, build_potential_tables, *args))

        grid = state.mixtures
        bg = astuple(grid.select_background())
        assert same_bytes(bg, on(scalar, monkeypatch, lambda: astuple(grid.select_background())))
        # the oracle at every 97th pixel, both lanes of the pairs
        h, w = frame.shape
        pixels = [divmod(i, w) for i in range(0, h * w, 97)]
        rows, cols = np.array(pixels).T
        assert same_bytes((bg[0][rows, cols], bg[1][rows, cols]), oracle_selection(grid, pixels))
