"""The compiled kernels: the HCF sweep, the per-pixel mixture update and
background selection, the potential tables and the edge grids, all in
`_native.c`.

The source is compiled with the system `cc` on first use and loaded with
ctypes. They are the engine's only path: when the build or the load
fails, `library()` raises an OSError naming the reason. The scalar
references they are tested against, bit for bit, live in
``tests/oracles.py``.
"""

from __future__ import annotations

import ctypes
import functools
import os
import zlib

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_native.c")
# -fno-math-errno lets sqrt compile to one instruction, with no libm call.
# -fopenmp-simd honours the source's `omp simd` loops and nothing else of
# OpenMP: no runtime, no threads. No -ffast-math or -ffp-contract=fast:
# each would break parity with the reference oracles. No -march, which
# would tie the build to the machine: the source's one AVX2 clone is
# picked when the library loads. No -fno-trapping-math either: the source
# relaxes it for the one loop that needs it, and file-wide it slows the
# HCF sweep.
_CFLAGS = ("-O2", "-ffp-contract=off", "-fno-math-errno", "-fopenmp-simd", "-shared", "-fPIC")

_P, _I, _D = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# name -> (argtypes, restype), as declared in _native.c
_SIGNATURES = {
    "hcf_sweep": ([_P, _P, _P, _D, _D, _I, _I, _P, _P, _P], _I),
    "mixture_update": ([_P, _P, _P, _P, _I, _D, _D, _D, _D, _D], None),
    "mixture_select": ([_P, _P, _P, _I, _P, _P], None),
    "potential_tables": ([_P, _P, _P, _P, _P, _P, _I, _P, _D, _D, _D, _D, _D, _P, _P, _P],
                         None),
    "central_differences": ([_P, _I, _I, _P, _P], None),
}


def address(array) -> int:
    """The address of a C-contiguous array's data, as `array.ctypes.data`
    gives it. A writable array's comes from a ctypes view of its buffer,
    which exists only for this call: about 0.5 against 1.9 us raw per call
    on a 2-vCPU VM, and a frame passes 25 arrays to the kernels."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(array))
    except (TypeError, ValueError):     # read-only, or empty
        return array.ctypes.data


@functools.cache
def library():
    """The compiled kernels, loaded on first use; OSError, naming the
    reason, when they cannot be built or loaded."""
    return _load(_SOURCE)


def _load(source: str):
    """The kernels of `source`, built into the same directory unless a build
    of this exact source, flags and machine is there already."""
    lib = ctypes.CDLL(_built(source))
    for name, (argtypes, restype) in _SIGNATURES.items():
        function = getattr(lib, name)
        function.argtypes = argtypes
        function.restype = restype
    return lib


def _built(source: str) -> str:
    """Path of the library built from `source`, building it when missing
    and then removing the builds of other revisions beside it."""
    machine = os.uname().machine
    try:
        with open(source, "rb") as fh:
            code = fh.read()
    except OSError as exc:
        raise OSError(f"cannot read the kernel source {source}: {exc.strerror}") from None
    # zlib, not hashlib: numpy has loaded it already, hashlib costs ms to import
    key = zlib.crc32(code + " ".join(_CFLAGS + (machine,)).encode())
    directory, name = os.path.split(source)
    stem, suffix = os.path.splitext(name)[0] + "-", f"-{machine}.so"
    library = os.path.join(directory, f"{stem}{key:08x}{suffix}")
    if not os.path.exists(library):
        _build(source, library)
        # the builds of earlier revisions of this source; never a .tmp file
        for other in os.listdir(directory or "."):
            if (other.startswith(stem) and other.endswith(suffix)
                    and other != os.path.basename(library)):
                try:
                    os.remove(os.path.join(directory, other))
                except FileNotFoundError:
                    pass
    return library


def _build(source: str, library: str) -> None:
    """Compile `source` into `library`, through a temporary file so that a
    concurrent or interrupted build never leaves a partial library."""
    import subprocess       # only here: needed only when no build is cached

    tmp = f"{library}.{os.getpid()}.tmp"
    try:
        try:
            proc = subprocess.run(["cc", *_CFLAGS, "-o", tmp, source],
                                  capture_output=True, text=True, check=False)
        except FileNotFoundError:
            raise OSError("no C compiler: cc is not on PATH") from None
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["no message"])[0]
            raise OSError(f"cc exited with code {proc.returncode}: {first}")
        os.replace(tmp, library)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
