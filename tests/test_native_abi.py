"""The ctypes declarations of `shadowseg._native` against the prototypes
in `_native.c`.

ctypes passes whatever it is given: a C function called with one
argument too many returns without error, whether `argtypes` lists the
extra argument or not. So an argument dropped from one side only could
pass every parity test; this one reads the prototypes themselves."""

import ctypes
import re

import numpy as np

from shadowseg import _native

# a definition at the start of a line: return type, name, parameters, body
DEFINITION = re.compile(r"^([A-Za-z_][\w \t*]*?)\b(\w+)\(([^)]*)\)\s*\{", re.MULTILINE)
SCALARS = {"int64_t": ctypes.c_int64, "double": ctypes.c_double, "void": None}


def ctype(declaration: str):
    """The ctypes type of a C parameter or return type: a pointer is a
    c_void_p, a scalar its own type."""
    if "*" in declaration:
        return ctypes.c_void_p
    words = [w for w in declaration.split() if w != "const"]
    return SCALARS[words[0]]


def exported_prototypes(source: str) -> dict:
    """Name -> (argtypes, restype) of every non-static function in `source`."""
    prototypes = {}
    for returns, name, params in DEFINITION.findall(source):
        if "static" in returns.split():
            continue
        # each parameter without its name, the last word
        args = [re.sub(r"\w+\s*$", "", p) for p in params.split(",")]
        prototypes[name] = ([ctype(a) for a in args], ctype(returns))
    return prototypes


def test_every_exported_kernel_is_declared_with_its_c_signature():
    with open(_native._SOURCE) as fh:
        prototypes = exported_prototypes(fh.read())
    assert set(prototypes) == set(_native._SIGNATURES)
    for name, (argtypes, restype) in _native._SIGNATURES.items():
        assert (argtypes, restype) == prototypes[name], name


def test_the_parser_reads_pointers_scalars_and_skips_static_functions():
    source = ("static int64_t helper(int64_t a)\n{\n}\n\n"
              "static inline void hidden(double *x)\n{\n}\n\n"
              "void kernel(const double *in, int64_t n,\n"
              "            double alpha, uint8_t *out)\n{\n}\n\n"
              "int64_t count(const Gaussian *g)\n{\n}\n")
    assert exported_prototypes(source) == {
        "kernel": ([ctypes.c_void_p, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p], None),
        "count": ([ctypes.c_void_p], ctypes.c_int64),
    }


def test_address_is_the_data_address_numpy_reports():
    writable = np.arange(12.0).reshape(3, 4)
    read_only = np.arange(5.0)
    read_only.flags.writeable = False
    views = (writable[1:], writable[2], np.empty(0), read_only,
             np.frombuffer(b"\0" * 16, dtype=np.float64), np.broadcast_to(read_only, (2, 5)))
    for array in (writable, *views):
        assert _native.address(array) == array.ctypes.data
