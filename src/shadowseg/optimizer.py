"""Deterministic MAP labeling by highest-confidence-first commitment.

Every site starts uncommitted. Sites are visited in order of a stability
score (least stable first); each visit commits or relabels the site to
the label with the lowest local potential, then refreshes the scores of
its eight neighbors. The local potential of a candidate label counts
clique terms against committed neighbors only, so uncommitted sites never
penalize anyone. Energy decreases monotonically and the procedure stops
when no committed site can strictly improve.

The priority queue uses lazy deletion: each site carries a version
counter, and stale heap entries are dropped on pop.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from shadowseg.energy import NEIGHBORS_8, UNCOMMITTED, PriorParams, total_energy


@dataclass
class HcfResult:
    labels: np.ndarray          # (H, W) ints in {1, 2, 3}
    energy: float               # total posterior energy of the labeling
    visits: int                 # heap pops that survived staleness checks
    commits: int
    relabels: int
    trace: list[tuple[str, float]]   # ("commit"|"relabel", running energy after)


def hcf_minimize(u1: np.ndarray, u2: np.ndarray, prior: PriorParams) -> HcfResult:
    """Label every pixel of the frame, minimizing the posterior energy.

    `u1` and `u2` are (3, H, W) potential tables indexed by label-1.
    """
    _, height, width = u1.shape
    n = height * width
    lam1 = prior.lambda1
    lam2 = prior.lambda2

    # Local potentials with no committed neighbors: data terms plus bias.
    base = u1 + u2 + lam1 * prior.bias[:, None, None]
    f = base.transpose(1, 2, 0).ravel().tolist()    # flat, site-major

    part = np.partition(base, 1, axis=0)
    init_s = (part[0] - part[1]).ravel()

    labels = [UNCOMMITTED] * n
    version = [0] * n
    heap = [(float(init_s[y]), y, 0) for y in range(n)]
    heapq.heapify(heap)

    visits = commits = relabels = 0
    running = 0.0
    trace: list[tuple[str, float]] = []

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
            trace.append(("commit", running))
        else:
            if best_f >= f[b + old - 1]:
                continue
            labels[y] = best
            relabels += 1
            running += best_f - f[b + old - 1]
            trace.append(("relabel", running))

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
                     visits=visits, commits=commits, relabels=relabels, trace=trace)
