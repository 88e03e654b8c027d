"""The compiled kernels built with AddressSanitizer and
UndefinedBehaviorSanitizer: on the HCF tie, clamp-end, signed-zero,
bitmap-boundary and spread-magnitude corpora, a table the sweep refuses
as non-finite, mixtures whose best-ranked component is often not their
first, the edges of 3x3, 3xW, Hx3 and odd-width grids, one 64x64 engine
frame and one 63x65 engine frame, whose odd pixel count ends the
vectorized loops on their scalar epilogue, all five kernels run, and the
sanitized build must report nothing and return exactly what the normal
build returns.

The same corpus must also run every line of `_native.c` but the exit
when memory runs out: built for gcov coverage, the kernels must return
what the normal build returns, and gcov must report no other line
unexecuted. A line no input reaches is dead code, and a line this corpus
does not reach is one the sanitizers never check.

Run as a script, this file prints a digest of those outputs, using the
kernels of the library named as its argument, or the normal build without
one."""

import ctypes
import hashlib
import itertools
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from oracles import engine_frames
from shadowseg import EngineConfig, _native, process_frame
from shadowseg.background import MixtureGrid
from shadowseg.edge import frame_edges
from shadowseg.energy import initial_prior
from shadowseg.optimizer import hcf_minimize
from shadowseg.synth import SynthScene, scene_preset
from test_hcf_kernel import hcf_corpora
from test_simd_kernels import tied_mixtures

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")
ODD_SCENE = SynthScene(height=63, width=65, n_frames=6, lead_in=5)
EDGE_SHAPES = ((3, 3), (3, 10), (9, 3), (5, 7))


def kernel_digest() -> str:
    digest = hashlib.sha256()
    for u1, u2, prior in hcf_corpora():
        result = hcf_minimize(u1, u2, prior)
        digest.update(result.labels.tobytes())
        digest.update(repr((result.energy, result.visits, result.relabels, result.spilled,
                            result.label_counts, result.pair_counts)).encode())
    u = np.zeros((3, 2, 3))
    u[2, 1, 1] = np.inf
    with pytest.raises(ValueError) as refused:
        hcf_minimize(u, np.zeros_like(u), initial_prior())
    digest.update(str(refused.value).encode())
    background = MixtureGrid(*tied_mixtures(np.random.default_rng(240), 65)).select_background()
    digest.update(background.mean.tobytes())
    digest.update(background.variance.tobytes())
    rng = np.random.default_rng(241)
    for shape in EDGE_SHAPES:
        for edges in frame_edges(rng.uniform(0.0, 255.0, size=shape)):
            digest.update(edges.tobytes())
    config = EngineConfig(alpha=0.3, lambda1=2.0, lambda2=0.5)
    for state, frame in itertools.chain(
            engine_frames(scene_preset("recovery"), config, n_labeled=1),
            engine_frames(ODD_SCENE, EngineConfig(), n_labeled=1)):
        labels, diag = process_frame(state, frame)
        digest.update(labels.tobytes())
        digest.update(repr(diag).encode())
        for array in (state.mixtures.weights, state.mixtures.means, state.mixtures.variances,
                      state.background.mean, state.background.variance):
            digest.update(array.tobytes())
    return digest.hexdigest()


def test_sanitized_kernels_match_the_normal_build(tmp_path):
    runtime = subprocess.run(["cc", "-print-file-name=libasan.so"], capture_output=True,
                             text=True, check=False).stdout.strip()
    if not os.path.isabs(runtime):
        pytest.skip("the C compiler has no AddressSanitizer runtime")
    library = tmp_path / "_native-sanitized.so"
    proc = subprocess.run(["cc", *_native._CFLAGS, *SANITIZE, "-o", str(library),
                           _native._SOURCE], capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr

    env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, __file__, str(library)], capture_output=True,
                          text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == kernel_digest()


def unexecuted_lines(report: str, source: str) -> list[int]:
    """The lines of `source` that a `gcov --stdout` report marks as never
    run."""
    lines, current = [], None
    for line in report.splitlines():
        count, _, rest = line.partition(":")
        number, _, text = rest.partition(":")
        if number.strip() == "0" and text.startswith("Source:"):
            current = text[len("Source:"):]
        elif count.strip() == "#####" and os.path.samefile(current, source):
            lines.append(int(number))
    return lines


def test_the_corpus_runs_every_kernel_line(tmp_path):
    version = subprocess.run(["cc", "--version"], capture_output=True, text=True, check=False)
    if "Free Software Foundation" not in version.stdout or shutil.which("gcov") is None:
        pytest.skip("cc is not GCC, or gcov is missing")
    library = tmp_path / "_native-coverage.so"
    flags = ["-O0" if flag == "-O2" else flag for flag in _native._CFLAGS]
    proc = subprocess.run(["cc", *flags, "--coverage", "-o", str(library), _native._SOURCE],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, __file__, str(library)], capture_output=True,
                          text=True, env=env, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert proc.stdout.strip() == kernel_digest()

    (data,) = tmp_path.glob("*.gcda")
    proc = subprocess.run(["gcov", "--stdout", data.name], cwd=tmp_path, capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    with open(_native._SOURCE) as fh:
        source = fh.read().splitlines()
    # the exit when an allocation fails, which no test provokes
    missed = [number for number in unexecuted_lines(proc.stdout, _native._SOURCE)
              if not (source[number - 1].strip() == "goto done;"
                      and "== NULL" in source[number - 2])]
    assert not missed, "never run: " + ", ".join(f"_native.c:{n}" for n in missed)


if __name__ == "__main__":
    if len(sys.argv) > 1:
        built = ctypes.CDLL(sys.argv[1])
        for name, (argtypes, restype) in _native._SIGNATURES.items():
            getattr(built, name).argtypes = argtypes
            getattr(built, name).restype = restype
        _native.library = lambda: built
    print(kernel_digest())
