"""Scalar reference implementations the engine is tested against.

The library keeps only the engine: the compiled kernels of `_native.c`
and the vectorized numpy around them. These single-pixel and single-site
versions spell out the same semantics one step at a time, and are the
references the kernels match bit for bit:

- the mixture of Gaussians for one pixel (`PixelMixture`, `match_component`,
  `update_mixture`, `select_background`), which the kernels behind
  `MixtureGrid` follow bit for bit, and `pixel` to read one pixel's
  mixture out of a grid;
- the central differences of a grid by numpy slicing (`frame_edges`),
  which the kernel behind `shadowseg.edge.frame_edges` matches byte for
  byte, and the edge-difference distribution of the background with its
  per-pixel variances (`background_edge_model`), whose means the engine
  builds in `shadowseg.edge`;
- the potentials of one label (`intensity_potential`, `edge_potential`),
  and the potential tables of a frame as numpy stacks of them
  (`potential_tables`), which the kernel behind
  `likelihood.build_potential_tables` matches byte for byte;
- the clique terms of the labeling energy (`pair_potential`,
  `unary_costs`, `local_potential`), and the energy of a whole labeling
  by gathers along the label axis (`total_energy`), which the engine's
  sum of the HCF kernel's terms, `energy.energy_of_terms`, matches byte
  for byte, with what it rests on: the label counts (`label_counts`), the
  disagreeing pairs along each of `PAIR_DIRECTIONS` (`pair_counts`) and
  the pair term summed from them (`pair_term`); `UNCOMMITTED` marks a
  site not yet labeled;
- the HCF stability score of one site (`stability`), the HCF sweep as a
  plain Python loop (`hcf_python`), whose visit order, labels, energy and
  counts the compiled sweep reproduces bit for bit and whose result
  (`TracedResult`) can also list every commit and relabel, an
  exhaustive MAP search for tiny grids (`brute_force_map`), and expansion
  moves on scipy's minimum cut for frame-sized ones (`alpha_expansion`,
  `expansion_move`);
- the band around label boundaries that the acceptance test leaves out
  of its scores (`label_boundary_mask`);
- the bytes of a binary PGM file of any maxval (`pgm_bytes`), since the
  library writes only maxval 255 and the reader must reject the rest.

The parity tests draw their frame-sized instances from one generator,
`engine_frames`: each labeled frame of a seeded scene with the engine
state that labels it. `QVGA_SCENE` is the 320x240 scene among them, and
`BENCHMARK_WORKLOADS` the three scenes of the benchmark.
`detection_arguments` spells out the arguments that label a frame
against a state, and `detection_tables` the tables they build, so that a
change to detection edits one helper.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from shadowseg import EngineConfig, EngineState, edge, process_frame
from shadowseg.background import (INIT_VARIANCE, INIT_WEIGHT, MATCH_SIGMAS,
                                  VARIANCE_FLOOR, BackgroundModel, MixtureGrid)
from shadowseg.energy import BACKGROUND, FOREGROUND, LABELS, SHADOW, PriorParams
from shadowseg.likelihood import EDGE_DENSITY_FLOOR, LOG_2PI, build_potential_tables
from shadowseg.optimizer import HcfResult
from shadowseg.pipeline import pooled_variance
from shadowseg.shadow import ShadowParams
from shadowseg.synth import SynthScene, render_scene, scene_preset


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
        for i in range(grid.weights.shape[0])
    ])


# --- edge model ----------------------------------------------------------------

@dataclass
class EdgeModel:
    """Per-pixel mean and (diagonal) covariance of the background edge vector."""

    mean_h: np.ndarray
    mean_v: np.ndarray
    var_h: np.ndarray
    var_v: np.ndarray


def frame_edges(frame) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical central differences of a grid of at least
    3 x 3, taken in float64: the interior by slicing, each border column
    and row against its one neighbour and itself."""
    grid = np.asarray(frame, dtype=np.float64)
    h = np.empty(grid.shape)
    v = np.empty(grid.shape)
    np.subtract(grid[:, 2:], grid[:, :-2], out=h[:, 1:-1])
    np.subtract(grid[:, 1], grid[:, 0], out=h[:, 0])
    np.subtract(grid[:, -1], grid[:, -2], out=h[:, -1])
    np.subtract(grid[2:], grid[:-2], out=v[1:-1])
    np.subtract(grid[1], grid[0], out=v[0])
    np.subtract(grid[-1], grid[-2], out=v[-1])
    return h, v


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

UNCOMMITTED = 0         # the label of a site the optimizer has not committed yet

# (drow, dcol, squared distance) over the 8-neighborhood, in the order
# hcf_python visits a site's neighbors; the HCF kernel holds the same
# table, NEIGHBOUR and D2 in _native.c
NEIGHBORS_8 = (
    (-1, -1, 2.0), (-1, 0, 1.0), (-1, 1, 2.0),
    (0, -1, 1.0), (0, 1, 1.0),
    (1, -1, 2.0), (1, 0, 1.0), (1, 1, 2.0),
)
# (drow, dcol, squared distance) of each unordered neighbor pair of the
# 8-neighborhood exactly once
PAIR_DIRECTIONS = ((0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0), (1, -1, 2.0))


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
    return energy + prior.lambda2 * pair_term(labels)


def label_counts(labels: np.ndarray) -> tuple:
    """The sites of each label 1, 2, 3."""
    return tuple(int(np.count_nonzero(labels == lab)) for lab in LABELS)


def pair_counts(labels: np.ndarray) -> tuple:
    """The disagreeing neighbour pairs along each of PAIR_DIRECTIONS."""
    counts = []
    for dr, dc, _ in PAIR_DIRECTIONS:
        rows = labels.shape[0] - dr
        a = labels[:rows, max(0, -dc):labels.shape[1] - max(0, dc)]
        b = labels[dr:, max(0, dc):labels.shape[1] - max(0, -dc)]
        counts.append(int(np.count_nonzero(a != b)))
    return tuple(counts)


def pair_term(labels: np.ndarray) -> float:
    """The unweighted pair term: 1 / d2 over the disagreeing neighbour
    pairs, summed direction by direction in the order of PAIR_DIRECTIONS."""
    pair = 0.0
    for count, (_, _, d2) in zip(pair_counts(labels), PAIR_DIRECTIONS):
        pair += count / d2
    return pair


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


@dataclass
class TracedResult(HcfResult):
    commits: int            # visits that labeled an uncommitted site
    # with trace=True: ("commit"|"relabel", running energy after), else None
    trace: list[tuple[str, float]] | None = None


def sweep_outcome(result: HcfResult) -> tuple:
    """What the compiled sweep reproduces of `hcf_python`'s: the labels,
    the bits of the energy, and the visits and relabels."""
    return (result.labels.tobytes(), np.float64(result.energy).tobytes(),
            result.visits, result.relabels)


def hcf_python(u1: np.ndarray, u2: np.ndarray, prior: PriorParams, *,
               trace: bool = False, rekeyed: list | None = None) -> TracedResult:
    """The reference sweep, with a lazy-deletion heap: each site carries a
    version counter, and stale heap entries are dropped on pop. Every
    uncommitted site is keyed by the exact gap of its potentials, its
    lowest minus its middle one, as `stability` scores it: at the start
    from `np.partition`, after a neighbour update from `sorted`. A
    committed site is keyed by its lowest other potential minus its own,
    and queued only while that is negative. With
    `trace`, the result lists every commit and relabel in order. With a
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
                lo, second, _ = sorted((g0, g1, g2))
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

    # uint8, as the kernel returns them
    grid = np.array(labels, dtype=np.uint8).reshape(height, width)
    # one heap of every site: nothing spills
    return TracedResult(labels=grid, energy=total_energy(grid, u1, u2, prior),
                        visits=visits, relabels=relabels, spilled=0,
                        label_counts=label_counts(grid), pair=pair_term(grid),
                        commits=commits, trace=events)


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


EXPANSION_SCALE = 1000      # the cuts' capacities: energy terms times this, rounded to int32


def alpha_expansion(labels: np.ndarray, u1: np.ndarray, u2: np.ndarray, prior: PriorParams):
    """Expansion moves (Boykov, Veksler & Zabih, PAMI 2001) from the
    committed `labels`: the cheapest move to each label in turn, kept when
    it lowers `total_energy`, until no label's move does. Returns (labels,
    energy)."""
    energy = total_energy(labels, u1, u2, prior)
    improved = True
    while improved:
        improved = False
        for alpha in LABELS:
            moved = expansion_move(labels, alpha, u1, u2, prior)
            moved_energy = total_energy(moved, u1, u2, prior)
            if moved_energy < energy:
                labels, energy, improved = moved, moved_energy, True
    return labels, energy


def expansion_move(labels: np.ndarray, alpha: int, u1: np.ndarray, u2: np.ndarray,
                   prior: PriorParams) -> np.ndarray:
    """`labels` after the cheapest move that switches any set of sites to
    `alpha`: the minimum s-t cut of the move's binary energy, built as in
    Kolmogorov & Zabih (PAMI 2004) on capacities scaled by
    EXPANSION_SCALE. A site on the source side keeps its label (x = 0),
    one on the sink side takes alpha (x = 1)."""
    height, width = labels.shape
    n = labels.size
    site = np.arange(n)
    grid = site.reshape(height, width)
    pairs = [(grid[:height - dr, max(0, -dc):width - max(0, dc)].ravel(),
              grid[dr:, max(0, dc):width - max(0, -dc)].ravel(), prior.lambda2 / d2)
             for dr, dc, d2 in PAIR_DIRECTIONS]
    i = np.concatenate([first for first, _, _ in pairs])
    j = np.concatenate([second for _, second, _ in pairs])
    w = np.concatenate([np.full(first.size, weight) for first, _, weight in pairs])
    labels = labels.ravel()
    unary = unary_costs(u1, u2, prior).reshape(3, n)
    keep = unary[labels - 1, site]
    switch = unary[alpha - 1].copy()
    at_i, at_j = labels[i] == alpha, labels[j] == alpha
    # a pair with one site at alpha costs w while the other keeps its label
    keep += np.bincount(i[at_j & ~at_i], w[at_j & ~at_i], n)
    keep += np.bincount(j[at_i & ~at_j], w[at_i & ~at_j], n)
    # a pair with neither: E00 = w [l_i != l_j], E01 = E10 = w, E11 = 0, or
    # E00 + (E10 - E00) x_i + (E11 - E10) x_j + (E01 + E10 - E00 - E11) (1 - x_i) x_j
    free = ~at_i & ~at_j
    i, j, w = i[free], j[free], w[free]
    e00 = w * (labels[i] != labels[j])
    switch += np.bincount(i, w - e00, n) - np.bincount(j, w, n)
    source, sink = n, n + 1
    rows = np.concatenate([np.full(n, source), site, i])
    cols = np.concatenate([site, np.full(n, sink), j])
    capacity = np.rint(EXPANSION_SCALE * np.concatenate(
        [np.maximum(switch - keep, 0.0), np.maximum(keep - switch, 0.0), 2.0 * w - e00]))
    assert capacity.max(initial=0.0) < 2**31
    graph = csr_array((capacity.astype(np.int32), (rows, cols)), shape=(n + 2, n + 2))
    residual = graph - maximum_flow(graph, source, sink, method="dinic").flow
    residual.eliminate_zeros()
    kept = breadth_first_order(residual, source, return_predecessors=False)
    kept = kept[kept < n]
    moved = np.full(n, alpha)
    moved[kept] = labels[kept]
    return moved.reshape(height, width)


# --- evaluation ----------------------------------------------------------------

def label_boundary_mask(labels, radius: int = 1) -> np.ndarray:
    """Pixels within `radius` (Chebyshev) of a label change in `labels`.

    Used to exclude the thin band around object and shadow outlines where
    mixed pixels make ground truth ambiguous.
    """
    if radius < 1:
        raise ValueError(f"boundary radius must be >= 1, got {radius}")
    labels = np.asarray(labels)
    height, width = labels.shape
    if labels.size == 0:
        return np.zeros((height, width), dtype=bool)
    # off the grid, a neighbour's label is the pixel's own or another neighbour's
    padded = np.pad(labels, 1, mode="edge")
    mask = np.zeros((height, width), dtype=bool)
    for dr, dc, _ in NEIGHBORS_8:
        mask |= padded[1 + dr:1 + dr + height, 1 + dc:1 + dc + width] != labels
    for _ in range(radius - 1):
        padded = np.pad(mask, 1)        # a copy: the mask grows from its last state
        for dr, dc, _ in NEIGHBORS_8:
            mask |= padded[1 + dr:1 + dr + height, 1 + dc:1 + dc + width]
    return mask


# --- engine instances ----------------------------------------------------------

QVGA_SCENE = SynthScene(height=240, width=320, n_frames=7, lead_in=5,
                        object_size=(52, 52), shadow_size=(52, 52), shadow_offset=(60, 0),
                        start=(24, 16), step=(0, 8), gain=0.5, offset=0.0)


def engine_frames(scene, config, n_labeled=None, *, seed=0, adaptive=False):
    """Each labeled frame of `scene` with the engine state that labels it,
    after a static bootstrap from the scene's lead-in or, `adaptive`, an
    adaptive start from its first frame, which is then labeled too (as
    `segment` does): yields `(state, frame)`, and folds the frame into the
    state when the next one is asked for."""
    frames, _ = render_scene(scene, seed=seed)
    if adaptive:
        state = EngineState.from_first_frame(frames[0], config)
    else:
        state = EngineState.from_static(frames[:scene.lead_in], config)
        frames = frames[scene.lead_in:]
    for frame in frames[:n_labeled]:
        yield state, frame
        process_frame(state, frame)


def detection_arguments(state: EngineState, frame) -> tuple:
    """The eight arguments of `build_potential_tables` that label `frame`
    against `state`, as `process_frame` builds them: the frame as float64
    and its edges, the background means and their edges, the pooled
    variance and the shadow transform."""
    frame = np.asarray(frame, dtype=np.float64)
    return (frame, *edge.frame_edges(frame), state.background.mean,
            *edge.background_edge_model(state.background), pooled_variance(state.background),
            state.shadow)


def detection_tables(state: EngineState, frame) -> tuple:
    """The `(u1, u2)` potential tables that label `frame` against `state`:
    the tables `process_frame` builds, and hands to its `dump` hook."""
    return build_potential_tables(*detection_arguments(state, frame))


# The scenes, settings and starts of the benchmark's three workloads
# (bench/scenes.py, which renders the same frames for the same geometry and
# seed), as engine_frames keyword arguments; their seed-1 instances.
BENCHMARK_WORKLOADS = {
    "qvga_static": dict(scene=replace(QVGA_SCENE, n_frames=13), config=EngineConfig()),
    "cli_adaptive_64": dict(scene=scene_preset("quality"), config=EngineConfig(),
                            adaptive=True),
    "recovery_flicker_64": dict(scene=scene_preset("recovery", n_frames=16),
                                config=EngineConfig(alpha=0.3, lambda1=2.0, lambda2=0.5)),
}


# --- PGM ------------------------------------------------------------------------

def pgm_bytes(pixels: np.ndarray, maxval: int) -> bytes:
    """A binary PGM file of `pixels` under the header's `maxval`."""
    header = f"P5\n{pixels.shape[1]} {pixels.shape[0]}\n{maxval}\n".encode("ascii")
    return header + pixels.astype(np.uint8).tobytes()
