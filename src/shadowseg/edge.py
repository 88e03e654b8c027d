"""Central-difference edge vectors and the background edge-difference model.

The edge vector at a pixel is the pair of +/-1 central differences along
the two image axes.  `x1` is the column index and `x2` the row index, so
the horizontal component differs along columns.  Border pixels use
replicate padding (coordinates clamped to the image), which keeps every
pixel labelable.

Under the independent-noise background model the edge vector of the
background is bivariate normal: its mean is the central difference of the
background means, its variance the sum of the two neighbors' variances,
and its two components are uncorrelated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from shadowseg.background import BackgroundModel


@dataclass
class EdgeModel:
    """Per-pixel mean and (diagonal) covariance of the background edge vector."""

    mean_h: np.ndarray
    mean_v: np.ndarray
    var_h: np.ndarray
    var_v: np.ndarray


def frame_edges(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical central differences for every pixel.

    Integer frames are widened to int64 first so differences at intensity
    extremes cannot wrap.  Returns (horizontal, vertical) grids.
    """
    if frame.ndim != 2 or frame.shape[0] < 3 or frame.shape[1] < 3:
        raise ValueError("frame must be at least 3x3")
    wide = np.int64 if np.issubdtype(frame.dtype, np.integer) else np.float64
    return _clamped_pairs(np.asarray(frame, dtype=wide), np.subtract)


def background_edge_model(bg: BackgroundModel) -> EdgeModel:
    """Edge-difference distribution implied by the background model."""
    mean_h, mean_v = frame_edges(bg.mean)
    var_h, var_v = _clamped_pairs(bg.variance, np.add)
    return EdgeModel(mean_h, mean_v, var_h, var_v)


def _clamped_pairs(grid: np.ndarray, op) -> tuple[np.ndarray, np.ndarray]:
    """`op(next, previous)` of every pixel's two neighbours along the
    columns, then along the rows, with coordinates clamped to the grid:
    the interior by slicing, the border columns and rows from their one
    neighbour and themselves."""
    pairs = []
    for axis in (1, 0):
        out = np.empty(grid.shape, grid.dtype)
        src, dst = np.moveaxis(grid, axis, 0), np.moveaxis(out, axis, 0)
        op(src[2:], src[:-2], out=dst[1:-1])
        op(src[1], src[0], out=dst[0])
        op(src[-1], src[-2], out=dst[-1])
        pairs.append(out)
    return pairs[0], pairs[1]
