"""Labeling energy: unary potentials plus an MRF smoothness prior.

A labeling assigns each pixel background (1), shadow (2), or foreground
(3); 0 marks a site the optimizer has not committed yet.  The objective is
the sum of per-pixel negative log-likelihoods, a weighted per-label bias
(single-pixel cliques), and weighted disagreement penalties over the
8-neighborhood two-pixel cliques, each unordered pair counted once with
weight 1/distance^2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

UNCOMMITTED = 0
BACKGROUND = 1
SHADOW = 2
FOREGROUND = 3
LABELS = (BACKGROUND, SHADOW, FOREGROUND)

# (drow, dcol, squared distance) over the 8-neighborhood
NEIGHBORS_8 = (
    (-1, -1, 2.0), (-1, 0, 1.0), (-1, 1, 2.0),
    (0, -1, 1.0), (0, 1, 1.0),
    (1, -1, 2.0), (1, 0, 1.0), (1, 1, 2.0),
)
# Each unordered neighbor pair exactly once
PAIR_DIRECTIONS = ((0, 1, 1.0), (1, 0, 1.0), (1, 1, 2.0), (1, -1, 2.0))

LAMBDA1_DEFAULT = 10.0
LAMBDA2_DEFAULT = 4.0


@dataclass(frozen=True)
class PriorParams:
    """Per-label bias energies (lower = more frequent) and clique weights."""

    bias: np.ndarray        # 3 values in [-1, 0], indexed by label - 1
    lambda1: float = LAMBDA1_DEFAULT
    lambda2: float = LAMBDA2_DEFAULT


def initial_prior(lambda1: float = LAMBDA1_DEFAULT, lambda2: float = LAMBDA2_DEFAULT) -> PriorParams:
    return PriorParams(bias=np.full(3, -1.0 / 3.0), lambda1=lambda1, lambda2=lambda2)


def total_energy(labels: np.ndarray, u1: np.ndarray, u2: np.ndarray, prior: PriorParams) -> float:
    """Objective value of a fully committed labeling."""
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


def update_label_bias(prior: PriorParams, counts, alpha: float) -> PriorParams:
    """Blend the bias toward the negated label frequencies of the last frame.

    A zero total count leaves the prior untouched.
    """
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total == 0:
        return prior
    target = -counts / total
    return replace(prior, bias=(1.0 - alpha) * prior.bias + alpha * target)
