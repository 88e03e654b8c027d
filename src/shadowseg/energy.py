"""Labeling energy: unary potentials plus an MRF smoothness prior.

A labeling assigns each pixel background (1), shadow (2), or foreground
(3).  The objective is the sum of per-pixel negative log-likelihoods, a
weighted per-label bias (single-pixel cliques), and weighted disagreement
penalties over the 8-neighborhood two-pixel cliques, each unordered pair
counted once with weight 1/distance^2.

The engine sums the objective from the terms the HCF kernel returns
(`energy_of_terms`), the pair term included. The reference that gathers
them from a labeling is `total_energy` in ``tests/oracles.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BACKGROUND = 1
SHADOW = 2
FOREGROUND = 3
LABELS = (BACKGROUND, SHADOW, FOREGROUND)

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


def energy_of_terms(terms, pair: float, prior: PriorParams) -> float:
    """Objective value of a labeling from its terms: `terms` holds each
    site's u1, u2 and unweighted bias of its label as three C-ordered
    (H, W) grids, `pair` the unweighted pair term, 1 / d2 summed over the
    disagreeing neighbor pairs. The HCF kernel returns both, so that the
    optimizer gets the bits of the oracle `total_energy`
    (``tests/oracles.py``) without its gathers."""
    energy = float(terms[0].sum() + terms[1].sum())
    energy += prior.lambda1 * float(terms[2].sum())
    return energy + prior.lambda2 * pair


def update_label_bias(prior: PriorParams, counts, alpha: float) -> PriorParams:
    """Blend the bias toward the negated label frequencies of the last frame.

    `counts` are the three label counts, integers. A zero total count
    leaves the prior untouched.
    """
    total = sum(counts)
    if total == 0:
        return prior
    # per label, the float64 operations of (1 - alpha) * bias + alpha * (-counts / total)
    keep = 1.0 - alpha
    bias = [keep * b + alpha * (-c / total) for b, c in zip(prior.bias.tolist(), counts)]
    return PriorParams(np.array(bias), prior.lambda1, prior.lambda2)
