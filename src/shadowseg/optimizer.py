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
label biases and sums the site potentials itself, in the order
`_site_potentials` does. Its labels, energy, counts and trace are
bit-identical to `_hcf_python`, the reference loop, which runs instead
when the kernels cannot be built or loaded.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from shadowseg import _native
from shadowseg.energy import NEIGHBORS_8, UNCOMMITTED, PriorParams, total_energy

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

    `u1` and `u2` are (3, H, W) potential tables indexed by label-1. With
    `trace`, the result lists every commit and relabel in order.
    """
    shape = np.shape(u1)
    if len(shape) != 3 or shape[0] != 3 or np.shape(u2) != shape:
        raise ValueError("potential tables must both be (3, H, W), "
                         f"got {shape} and {np.shape(u2)}")
    if np.shape(prior.bias) != (3,):
        raise ValueError(f"the label bias must hold 3 values, got shape {np.shape(prior.bias)}")
    lib = _native.library()
    if lib is None:
        return _hcf_python(u1, u2, prior, trace=trace)
    _, height, width = shape
    n = height * width
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


def _site_potentials(u1, u2, prior: PriorParams) -> np.ndarray:
    """Local potentials with no committed neighbors: data terms plus bias."""
    return u1 + u2 + prior.lambda1 * prior.bias[:, None, None]


def _hcf_python(u1: np.ndarray, u2: np.ndarray, prior: PriorParams, *,
                trace: bool = False) -> HcfResult:
    """The reference sweep, with a lazy-deletion heap: each site carries a
    version counter, and stale heap entries are dropped on pop."""
    _, height, width = u1.shape
    n = height * width
    lam2 = prior.lambda2

    base = _site_potentials(u1, u2, prior)
    f = base.transpose(1, 2, 0).ravel().tolist()    # flat, site-major

    part = np.partition(base, 1, axis=0)
    init_s = (part[0] - part[1]).ravel()

    labels = [UNCOMMITTED] * n
    version = [0] * n
    heap = [(float(init_s[y]), y, 0) for y in range(n)]
    heapq.heapify(heap)

    visits = commits = relabels = 0
    running = 0.0
    events: list[tuple[str, float]] | None = [] if trace else None

    while heap:
        _, y, ver = heapq.heappop(heap)
        if ver != version[y]:
            continue
        visits += 1
        b = 3 * y
        f0, f1, f2 = f[b], f[b + 1], f[b + 2]
        best, best_f = 1, f0
        if f1 < best_f:
            best, best_f = 2, f1
        if f2 < best_f:
            best, best_f = 3, f2
        old = labels[y]
        if old == UNCOMMITTED:
            labels[y] = best
            commits += 1
            running += best_f
            if trace:
                events.append(("commit", running))
        else:
            if best_f >= f[b + old - 1]:
                continue
            labels[y] = best
            relabels += 1
            running += best_f - f[b + old - 1]
            if trace:
                events.append(("relabel", running))

        r, c = divmod(y, width)
        for dr, dc, d2 in NEIGHBORS_8:
            rr, cc = r + dr, c + dc
            if not (0 <= rr < height and 0 <= cc < width):
                continue
            z = rr * width + cc
            zb = 3 * z
            w = lam2 / d2
            if old == UNCOMMITTED:
                f[zb] += w
                f[zb + 1] += w
                f[zb + 2] += w
                f[zb + best - 1] -= w
            else:
                f[zb + best - 1] -= w
                f[zb + old - 1] += w
            version[z] += 1
            g0, g1, g2 = f[zb], f[zb + 1], f[zb + 2]
            zl = labels[z]
            if zl == UNCOMMITTED:
                lo = min(g0, g1, g2)
                second = g0 + g1 + g2 - lo - max(g0, g1, g2)
                heapq.heappush(heap, (lo - second, z, version[z]))
            else:
                cur = f[zb + zl - 1]
                if zl == 1:
                    alt = min(g1, g2)
                elif zl == 2:
                    alt = min(g0, g2)
                else:
                    alt = min(g0, g1)
                if alt - cur < 0.0:
                    heapq.heappush(heap, (alt - cur, z, version[z]))

    grid = np.array(labels, dtype=np.int64).reshape(height, width)
    return HcfResult(labels=grid, energy=total_energy(grid, u1, u2, prior),
                     visits=visits, commits=commits, relabels=relabels, trace=events)
