"""Deterministic MAP labeling by highest-confidence-first commitment.

Every site starts uncommitted. Sites are visited in order of a stability
score (least stable first): for an uncommitted site, its lowest local
potential minus its middle one, exactly; for a committed site, its
lowest minus its own. Each visit commits or relabels the site to
the label with the lowest local potential, then refreshes the scores of
its eight neighbors. The local potential of a candidate label counts
clique terms against committed neighbors only, so uncommitted sites never
penalize anyone. Energy decreases monotonically and the procedure stops
when no committed site can strictly improve.

The sweep runs in a C kernel (`hcf_sweep` in `_native.c`, see
`shadowseg._native`). It reads the two potential tables and the label
biases and sums the site potentials itself, as `unary_costs` in
``tests/oracles.py`` does. The kernel owns the 8-neighborhood: its
offsets and squared distances d2 are tables of its own, and it weighs
each clique lambda2 / d2 itself. It keeps each site's three potentials
and its queue key in one 32-byte record, inside the one work buffer this
module allocates per call, and each site's state in the (H, W) uint8
array that it returns as the labels; it queues touched sites in 128
buckets per power of two of their keys. On its final pass over the
labels it also counts each label, gathers each site's potentials and
bias of its label, and sums the pair term, 1 / d2 over the disagreeing
neighbor pairs; `energy.energy_of_terms` sums those to the energy, to
the bit what the oracle `total_energy` of ``tests/oracles.py`` gathers.
Its labels, energy, counts and pair term are bit-identical to
`hcf_python` there, the reference loop that spells out and can trace
the visit order.

A committed site is queued only while its score is negative, that is
while another label is strictly cheaper, so no visit is wasted: each
site commits exactly once, and `HcfResult.visits` is the number of sites
plus the relabels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from shadowseg import _native
from shadowseg.energy import PriorParams, energy_of_terms


@dataclass
class HcfResult:
    labels: np.ndarray          # (H, W) uint8 in {1, 2, 3}
    energy: float               # total posterior energy of the labeling
    visits: int                 # sites taken from the queue: H * W commits plus the relabels
    relabels: int
    spilled: int                # sites the kernel's frontier moved from a full bucket to its heap
    label_counts: tuple[int, int, int]  # sites labeled 1, 2 and 3
    pair: float                 # the MRF pair term: 1 / d2 summed over disagreeing neighbors


def hcf_minimize(u1: np.ndarray, u2: np.ndarray, prior: PriorParams) -> HcfResult:
    """Label every pixel of the frame, minimizing the posterior energy.

    `u1` and `u2` are (3, H, W) potential tables indexed by label-1, with
    H * W below 2**31. The site potentials, the weighted label bias and
    the clique weights must be finite.
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
    t1 = np.ascontiguousarray(u1, dtype=np.float64)
    t2 = np.ascontiguousarray(u2, dtype=np.float64)
    lambda1, lambda2 = float(prior.lambda1), float(prior.lambda2)
    bias = np.array(prior.bias, dtype=np.float64)
    # the IEEE products the kernel forms, on Python floats
    weighted = [lambda1 * b for b in bias.tolist()]
    # the sweep's exactness rests on (score, site) being a strict total order
    if not all(map(math.isfinite, weighted)):
        raise ValueError("the weighted label bias lambda1 * bias must be finite, "
                         f"got {weighted}")
    if not math.isfinite(lambda2):
        raise ValueError(f"the clique weight lambda2 must be finite, got {prior.lambda2}")
    # the kernel's site records, 32 bytes each from the first 32-byte
    # boundary, which its final pass overwrites with the terms
    work = np.empty(4 * n + 3)
    # the kernel's state of each site, and then its label
    labels = np.empty((height, width), dtype=np.uint8)
    counts = np.empty(5, dtype=np.int64)
    address = _native.address
    status = lib.hcf_sweep(address(t1), address(t2), address(bias), lambda1, lambda2,
                           height, width, address(labels), address(counts), address(work))
    if status == -1:
        raise MemoryError("HCF kernel could not allocate its work arrays")
    if status == -2:
        raise ValueError(_non_finite(t1, t2))
    relabels, spilled, *sites = counts.tolist()
    terms = work[:3 * n].reshape(3, height, width)
    pair = float(work[3 * n])
    return HcfResult(labels=labels, energy=energy_of_terms(terms, pair, prior),
                     visits=n + relabels, relabels=relabels, spilled=spilled,
                     label_counts=tuple(sites), pair=pair)


def _non_finite(t1: np.ndarray, t2: np.ndarray) -> str:
    """Why the kernel found a site potential u1 + u2 + bias NaN or infinite."""
    for name, table in (("u1", t1), ("u2", t2)):
        if not np.isfinite(table).all():
            return f"potential table {name} holds NaN or infinite values"
    return "a site potential u1 + u2 + lambda1 * bias overflows to infinity"
