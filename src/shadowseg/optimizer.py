"""Deterministic MAP labeling by highest-confidence-first commitment.

Every site starts uncommitted. Sites are visited in order of a stability
score (least stable first); each visit commits or relabels the site to
the label with the lowest local potential, then refreshes the scores of
its eight neighbors. The local potential of a candidate label counts
clique terms against committed neighbors only, so uncommitted sites never
penalize anyone. Energy decreases monotonically and the procedure stops
when no committed site can strictly improve.

The sweep runs in a C kernel (`hcf_sweep` in `_native.c`, see
`shadowseg._native`). It reads the two potential tables and the weighted
label biases and sums the site potentials itself, as `unary_costs` in
``tests/oracles.py`` does. Its labels, energy, counts and trace are
bit-identical to `hcf_python` there, the reference loop that spells out
the visit order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from shadowseg import _native
from shadowseg.energy import NEIGHBORS_8, PriorParams, total_energy

_OFFSETS = np.array([(dr, dc) for dr, dc, _ in NEIGHBORS_8], dtype=np.int64)
_TRACE_KINDS = ("commit", "relabel")


@dataclass
class HcfResult:
    labels: np.ndarray          # (H, W) ints in {1, 2, 3}
    energy: float               # total posterior energy of the labeling
    visits: int                 # sites taken from the queue (stale entries not counted)
    commits: int
    relabels: int
    # with trace=True: ("commit"|"relabel", running energy after), else None
    trace: list[tuple[str, float]] | None


def hcf_minimize(u1: np.ndarray, u2: np.ndarray, prior: PriorParams, *,
                 trace: bool = False) -> HcfResult:
    """Label every pixel of the frame, minimizing the posterior energy.

    `u1` and `u2` are (3, H, W) potential tables indexed by label-1, with
    H * W below 2**31. With `trace`, the result lists every commit and
    relabel in order.
    """
    shape = np.shape(u1)
    if len(shape) != 3 or shape[0] != 3 or np.shape(u2) != shape:
        raise ValueError("potential tables must both be (3, H, W), "
                         f"got {shape} and {np.shape(u2)}")
    if np.shape(prior.bias) != (3,):
        raise ValueError(f"the label bias must hold 3 values, got shape {np.shape(prior.bias)}")
    _, height, width = shape
    n = height * width
    if n >= 2**31:
        # the kernel links its queued sites by 32-bit indices
        raise ValueError(f"a grid of {height} x {width} sites is too large, "
                         "HCF labels fewer than 2**31")
    lib = _native.library()
    t1, t2 = (np.ascontiguousarray(u, dtype=np.float64) for u in (u1, u2))
    bias = np.ascontiguousarray(prior.lambda1 * prior.bias, dtype=np.float64)
    weights = np.array([prior.lambda2 / d2 for _, _, d2 in NEIGHBORS_8], dtype=np.float64)
    labels = np.empty(n, dtype=np.int64)
    counts = np.empty(3, dtype=np.int64)
    # sized for the n commits; when relabels overflow it, the kernel
    # reports how many events there were and runs again at that size
    capacity = n if trace else 0
    while True:
        kinds = np.empty(capacity, dtype=np.uint8)
        energies = np.empty(capacity, dtype=np.float64)
        n_events = lib.hcf_sweep(t1.ctypes.data, t2.ctypes.data, bias.ctypes.data,
                                 height, width, _OFFSETS.ctypes.data,
                                 weights.ctypes.data, labels.ctypes.data, counts.ctypes.data,
                                 kinds.ctypes.data, energies.ctypes.data, capacity)
        if n_events < 0:
            raise MemoryError("HCF kernel could not allocate its work arrays")
        if not trace or n_events <= capacity:
            break
        capacity = n_events
    events = None
    if trace:
        events = [(_TRACE_KINDS[k], e) for k, e in
                  zip(kinds[:n_events].tolist(), energies[:n_events].tolist())]
    grid = labels.reshape(height, width)
    visits, commits, relabels = counts.tolist()
    return HcfResult(labels=grid, energy=total_energy(grid, u1, u2, prior),
                     visits=visits, commits=commits, relabels=relabels, trace=events)
