"""The compiled kernels built with AddressSanitizer and
UndefinedBehaviorSanitizer: on the HCF tie, clamp-end, signed-zero and
bitmap-boundary corpora, one 64x64 engine frame and one 63x65 engine
frame, whose odd pixel count ends the vectorized loops on their scalar
epilogue, all four kernels run, and the sanitized build must report nothing
and return exactly what the normal build returns.

Run as a script, this file prints a digest of those outputs, using the
kernels of the library named as its argument, or the normal build without
one."""

import ctypes
import hashlib
import itertools
import os
import subprocess
import sys

import pytest

from oracles import engine_frames
from shadowseg import EngineConfig, _native, process_frame
from shadowseg.optimizer import hcf_minimize
from shadowseg.synth import SynthScene, scene_preset
from test_hcf_kernel import hcf_corpora

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=all")
ODD_SCENE = SynthScene(height=63, width=65, n_frames=6, lead_in=5)


def kernel_digest() -> str:
    digest = hashlib.sha256()
    for u1, u2, prior in hcf_corpora():
        result = hcf_minimize(u1, u2, prior)
        digest.update(result.labels.tobytes())
        digest.update(repr((result.energy, result.visits, result.commits, result.relabels,
                            result.spilled, result.label_counts, result.pair_counts)).encode())
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


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sanitized = ctypes.CDLL(sys.argv[1])
        for name, (argtypes, restype) in _native._SIGNATURES.items():
            getattr(sanitized, name).argtypes = argtypes
            getattr(sanitized, name).restype = restype
        _native.library = lambda: sanitized
    print(kernel_digest())
