"""Scalar reference implementations the engine is tested against.

The library keeps only the engine: the compiled kernels of `_native.c`
and the vectorized numpy around them. These single-pixel and single-site
versions spell out the same semantics one step at a time, and are the
references the kernels match bit for bit:

- the mixture of Gaussians for one pixel (`PixelMixture`, `match_component`,
  `update_mixture`, `select_background`), which the kernels behind
  `MixtureGrid` follow bit for bit, and `pixel` to read one pixel's
  mixture out of a grid;
- the edge-difference distribution of the background with its
  per-pixel variances (`background_edge_model`), whose means the engine
  builds in `shadowseg.edge`;
- the potentials of one label (`intensity_potential`, `edge_potential`),
  and the potential tables of a frame as numpy stacks of them
  (`potential_tables`), which the kernel behind
  `likelihood.build_potential_tables` matches byte for byte;
- the clique terms of the labeling energy (`pair_potential`,
  `unary_costs`, `local_potential`), and the energy of a whole labeling
  by gathers along the label axis (`total_energy`), which the engine's
  `energy.total_energy` matches byte for byte;
- the HCF stability score of one site (`stability`), the HCF sweep as a
  plain Python loop (`hcf_python`), whose visit order, labels, energy,
  counts and trace the compiled sweep reproduces bit for bit, and an
  exhaustive MAP search for tiny grids (`brute_force_map`).

The parity tests draw their frame-sized instances from one generator,
`engine_frames`: each labeled frame of a seeded scene with the engine
state that labels it. `QVGA_SCENE` is the 320x240 scene among them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from shadowseg import EngineState, process_frame
from shadowseg.background import (INIT_VARIANCE, INIT_WEIGHT, MATCH_SIGMAS,
                                  VARIANCE_FLOOR, BackgroundModel, MixtureGrid)
from shadowseg.energy import (BACKGROUND, FOREGROUND, LABELS, NEIGHBORS_8,
                              PAIR_DIRECTIONS, SHADOW, PriorParams, UNCOMMITTED)
from shadowseg.likelihood import EDGE_DENSITY_FLOOR, LOG_2PI
from shadowseg.optimizer import HcfResult
from shadowseg.shadow import ShadowParams
from shadowseg.synth import SynthScene, render_scene


# --- mixture of Gaussians, one pixel -------------------------------------------

@dataclass
class GaussianComponent:
    weight: float
    mean: float
    variance: float


@dataclass
class PixelMixture:
    """Ordered list of exactly K Gaussian components for one pixel."""

    components: list[GaussianComponent]

    def __post_init__(self):
        if not 3 <= len(self.components) <= 5:
            raise ValueError("mixture must hold 3 to 5 components")

    def weights_sum(self) -> float:
        return sum(c.weight for c in self.components)


def _check_order(mixture: PixelMixture) -> list[int]:
    # Descending weight/stddev; storage index breaks ties.
    ratios = [c.weight / math.sqrt(c.variance) for c in mixture.components]
    return sorted(range(len(ratios)), key=lambda i: (-ratios[i], i))


def match_component(mixture: PixelMixture, g: float) -> int | None:
    """Index of the first component with ``|g - mean| <= 3 stddev``,
    checked in descending weight/stddev order.  None when nothing matches.
    """
    g = float(g)
    for i in _check_order(mixture):
        c = mixture.components[i]
        if abs(g - c.mean) <= MATCH_SIGMAS * math.sqrt(c.variance):
            return i
    return None


def update_mixture(mixture: PixelMixture, g: float, alpha: float) -> PixelMixture:
    """One recursive history update for one pixel.

    The matched component blends toward the observation with rate alpha
    (means and variances of the others are untouched); if nothing matches,
    the lowest-weight component is replaced by a fresh one centered at the
    observation.  Weights are renormalized to sum 1 afterwards.
    """
    g = float(g)
    matched = match_component(mixture, g)
    out = [GaussianComponent(c.weight, c.mean, c.variance) for c in mixture.components]
    if matched is not None:
        c = out[matched]
        diff = g - c.mean
        out[matched] = GaussianComponent(
            (1.0 - alpha) * c.weight + alpha,
            (1.0 - alpha) * c.mean + alpha * g,
            max((1.0 - alpha) * c.variance + alpha * diff * diff, VARIANCE_FLOOR),
        )
    else:
        weights = [c.weight for c in out]
        lowest = weights.index(min(weights))
        out[lowest] = GaussianComponent(INIT_WEIGHT, g, INIT_VARIANCE)
    # summed one by one from the first component: sum() compensates its
    # rounding from Python 3.12 on, which is not this order of additions
    total = out[0].weight
    for c in out[1:]:
        total += c.weight
    for i, c in enumerate(out):
        out[i] = GaussianComponent(c.weight / total, c.mean, c.variance)
    return PixelMixture(out)


def select_background(mixture: PixelMixture) -> tuple[float, float]:
    """(mean, variance) of the component maximizing weight/stddev;
    ties go to the lowest component index."""
    best = 0
    best_ratio = -math.inf
    for i, c in enumerate(mixture.components):
        ratio = c.weight / math.sqrt(c.variance)
        if ratio > best_ratio:
            best, best_ratio = i, ratio
    chosen = mixture.components[best]
    return chosen.mean, chosen.variance


def pixel(grid: MixtureGrid, row: int, col: int) -> PixelMixture:
    """The mixture stored at one pixel of `grid`."""
    return PixelMixture([
        GaussianComponent(float(grid.weights[i, row, col]),
                          float(grid.means[i, row, col]),
                          float(grid.variances[i, row, col]))
        for i in range(grid.k)
    ])


# --- edge model ----------------------------------------------------------------

@dataclass
class EdgeModel:
    """Per-pixel mean and (diagonal) covariance of the background edge vector."""

    mean_h: np.ndarray
    mean_v: np.ndarray
    var_h: np.ndarray
    var_v: np.ndarray


def background_edge_model(bg: BackgroundModel) -> EdgeModel:
    """Edge-difference distribution implied by independent per-pixel
    background noise, with replicate padding at the borders: each
    component's mean is the difference of its two neighbours' means, its
    variance the sum of their variances."""
    mean = np.pad(bg.mean, 1, mode="edge")
    var = np.pad(bg.variance, 1, mode="edge")
    return EdgeModel(mean[1:-1, 2:] - mean[1:-1, :-2], mean[2:, 1:-1] - mean[:-2, 1:-1],
                     var[1:-1, 2:] + var[1:-1, :-2], var[2:, 1:-1] + var[:-2, 1:-1])


# --- potentials ----------------------------------------------------------------

def intensity_potential(g, bg_mean, bg_var, shadow: ShadowParams, y_max: float, label: int):
    """-ln p(intensity | background parameters, label)."""
    if label == FOREGROUND:
        return np.log(y_max) + np.zeros_like(np.asarray(g, dtype=np.float64))
    if label == BACKGROUND:
        gain, offset = 1.0, 0.0
    elif label == SHADOW:
        gain, offset = shadow.gain, shadow.offset
    else:
        raise ValueError(f"not a committed label: {label}")
    mean = gain * np.asarray(bg_mean, dtype=np.float64) + offset
    var = gain * gain * np.asarray(bg_var, dtype=np.float64)
    dev = np.asarray(g, dtype=np.float64) - mean
    return 0.5 * (LOG_2PI + np.log(var)) + dev * dev / (2.0 * var)


def edge_potential(edge_h, edge_v, mean_h, mean_v, var_h, var_v,
                   shadow: ShadowParams, y_max: float, label: int):
    """-ln p(edge vector | edge model parameters, label)."""
    edge_h = np.asarray(edge_h, dtype=np.float64)
    edge_v = np.asarray(edge_v, dtype=np.float64)
    if label == FOREGROUND:
        floor = EDGE_DENSITY_FLOOR / (y_max * y_max)
        fh = np.maximum(1.0 / y_max - np.abs(edge_h) / (y_max * y_max), floor)
        fv = np.maximum(1.0 / y_max - np.abs(edge_v) / (y_max * y_max), floor)
        return -np.log(fh) - np.log(fv)
    if label == BACKGROUND:
        gain = 1.0
    elif label == SHADOW:
        gain = shadow.gain
    else:
        raise ValueError(f"not a committed label: {label}")
    var_h = np.asarray(var_h, dtype=np.float64)
    var_v = np.asarray(var_v, dtype=np.float64)
    dev_h = edge_h - gain * np.asarray(mean_h, dtype=np.float64)
    dev_v = edge_v - gain * np.asarray(mean_v, dtype=np.float64)
    quad = dev_h * dev_h / var_h + dev_v * dev_v / var_v
    return LOG_2PI + 2.0 * np.log(gain) + 0.5 * np.log(var_h * var_v) + quad / (2.0 * gain * gain)



def potential_tables(frame, edge_h, edge_v, bg_mean, mean_h, mean_v, pooled, shadow, y_max):
    """The (3, H, W) intensity and edge tables as numpy stacks of the
    per-label potentials, the intensity variance pooled and each edge
    component's twice that: what `build_potential_tables` matches byte
    for byte."""
    height, width = np.shape(frame)
    u1 = np.empty((3, height, width))
    u2 = np.empty((3, height, width))
    edge_var = 2.0 * pooled
    for label in LABELS:
        u1[label - 1] = intensity_potential(frame, bg_mean, pooled, shadow, y_max, label)
        u2[label - 1] = edge_potential(edge_h, edge_v, mean_h, mean_v, edge_var, edge_var,
                                       shadow, y_max, label)
    return u1, u2


# --- labeling energy, one site -------------------------------------------------

def pair_potential(label_x: int, label_y: int, dist_sq: float) -> float:
    """0 for agreeing labels, 1/dist_sq otherwise.  Labels must be committed."""
    return 0.0 if label_x == label_y else 1.0 / dist_sq


def unary_costs(u1: np.ndarray, u2: np.ndarray, prior: PriorParams) -> np.ndarray:
    """Per-label per-pixel cost outside the pair terms: U1 + U2 + lambda1*bias."""
    return u1 + u2 + prior.lambda1 * prior.bias[:, None, None]


def total_energy(labels: np.ndarray, u1: np.ndarray, u2: np.ndarray, prior: PriorParams) -> float:
    """Objective value of a fully committed labeling: each site's potentials
    and bias gathered by its label, plus the pair terms."""
    if (labels == UNCOMMITTED).any():
        raise ValueError("labeling contains uncommitted sites")
    idx = (labels - 1)[None]
    energy = float(np.take_along_axis(u1, idx, 0).sum() + np.take_along_axis(u2, idx, 0).sum())
    energy += prior.lambda1 * float(prior.bias[labels - 1].sum())
    pair = 0.0
    for dr, dc, d2 in PAIR_DIRECTIONS:
        rows = labels.shape[0] - dr
        a = labels[:rows, max(0, -dc):labels.shape[1] - max(0, dc)]
        b = labels[dr:, max(0, dc):labels.shape[1] - max(0, -dc)]
        pair += np.count_nonzero(a != b) / d2
    return energy + prior.lambda2 * pair


def local_potential(row: int, col: int, label: int, labels: np.ndarray,
                    u1: np.ndarray, u2: np.ndarray, prior: PriorParams) -> float:
    """Conditional posterior potential of one candidate label at one site.

    Pair terms run over the committed 8-neighbors; uncommitted neighbors
    contribute nothing.
    """
    height, width = labels.shape
    f = float(u1[label - 1, row, col] + u2[label - 1, row, col])
    f += prior.lambda1 * float(prior.bias[label - 1])
    disagreement = 0.0
    for dr, dc, d2 in NEIGHBORS_8:
        r, c = row + dr, col + dc
        if 0 <= r < height and 0 <= c < width:
            s = labels[r, c]
            if s != UNCOMMITTED and s != label:
                disagreement += 1.0 / d2
    return f + prior.lambda2 * disagreement


# --- optimizer -----------------------------------------------------------------

def stability(row: int, col: int, labels: np.ndarray, u1: np.ndarray,
              u2: np.ndarray, prior: PriorParams) -> tuple[float, int]:
    """Confidence score and preferred label of one site in the field.

    Uncommitted sites score minus the gap between the two best labels
    (always <= 0); committed sites score the cheapest alternative minus
    the current cost, so negative means a relabel would pay off. Returns
    (score, best label); ties prefer the smallest label.
    """
    f = [local_potential(row, col, s, labels, u1, u2, prior) for s in LABELS]
    best = 1
    if f[1] < f[best - 1]:
        best = 2
    if f[2] < f[best - 1]:
        best = 3
    current = int(labels[row, col])
    if current == UNCOMMITTED:
        second = min(f[i] for i in range(3) if i != best - 1)
        return f[best - 1] - second, best
    cur = f[current - 1]
    best_other = min(v for i, v in enumerate(f) if i != current - 1)
    return best_other - cur, best


def hcf_python(u1: np.ndarray, u2: np.ndarray, prior: PriorParams, *,
                trace: bool = False, rekeyed: list | None = None) -> HcfResult:
    """The reference sweep, with a lazy-deletion heap: each site carries a
    version counter, and stale heap entries are dropped on pop. With a
    list `rekeyed`, every push after the first heap, a neighbour update
    that queues a site under a new score, appends its (site, score)."""
    _, height, width = u1.shape
    n = height * width
    lam2 = prior.lambda2

    base = unary_costs(u1, u2, prior)
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
                if rekeyed is not None:
                    rekeyed.append((z, lo - second))
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
                    if rekeyed is not None:
                        rekeyed.append((z, alt - cur))

    grid = np.array(labels, dtype=np.int64).reshape(height, width)
    # one heap of every site: nothing spills
    return HcfResult(labels=grid, energy=total_energy(grid, u1, u2, prior),
                     visits=visits, commits=commits, relabels=relabels, spilled=0,
                     trace=events)


def brute_force_map(u1: np.ndarray, u2: np.ndarray, prior: PriorParams):
    """Exhaustive MAP over all labelings; only feasible for tiny grids.

    Ties resolve to the labeling that is lexicographically smallest in
    raster order. Returns (labels, energy).
    """
    _, height, width = u1.shape
    n = height * width
    if n > 12:
        raise ValueError(f"grid of {n} sites is too large to enumerate")

    digits = np.unravel_index(np.arange(3 ** n), (3,) * n)
    assign = np.stack(digits, axis=1)                   # (3^n, n), values 0..2

    unary = (u1 + u2).reshape(3, n)
    energies = unary[assign, np.arange(n)].sum(axis=1)
    energies += prior.lambda1 * prior.bias[assign].sum(axis=1)

    for dr, dc, d2 in PAIR_DIRECTIONS:
        for r in range(height - dr):
            for c in range(max(0, -dc), width - max(0, dc)):
                y1 = r * width + c
                y2 = (r + dr) * width + (c + dc)
                energies += (prior.lambda2 / d2) * (assign[:, y1] != assign[:, y2])

    best = int(np.argmin(energies))
    grid = (assign[best] + 1).reshape(height, width).astype(np.int64)
    return grid, float(energies[best])


# --- engine instances ----------------------------------------------------------

QVGA_SCENE = SynthScene(height=240, width=320, n_frames=7, lead_in=5,
                        object_size=(52, 52), shadow_size=(52, 52), shadow_offset=(60, 0),
                        start=(24, 16), step=(0, 8), gain=0.5, offset=0.0)


def engine_frames(scene, config, n_labeled=None):
    """Each labeled frame of `scene` (seed 0) with the engine state that
    labels it, after a static bootstrap from the scene's lead-in: yields
    `(state, frame)`, and folds the frame into the state when the next
    one is asked for."""
    frames, _ = render_scene(scene, seed=0)
    state = EngineState.from_static(frames[:scene.lead_in], config)
    for frame in frames[scene.lead_in:][:n_labeled]:
        yield state, frame
        process_frame(state, frame)
