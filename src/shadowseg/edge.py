"""Central-difference edge vectors, of a frame and of the background.

The edge vector at a pixel is the pair of +/-1 central differences along
the two image axes.  `x1` is the column index and `x2` the row index, so
the horizontal component differs along columns.  Border pixels use
replicate padding (coordinates clamped to the image), which keeps every
pixel labelable.

Under the independent-noise background model the edge vector of the
background is bivariate normal, with uncorrelated components.  Its mean
is the central difference of the background means, which is all the
engine keeps of it: detection gives each component twice the pooled
intensity variance (see `shadowseg.pipeline`).  The per-pixel variance,
the sum of the two neighbours' variances, is spelled out only by the
reference `background_edge_model` in ``tests/oracles.py``.

Both grids come from one pass of the compiled kernel
`central_differences` (``_native.c``); the numpy slicing it replays is
the reference `frame_edges` in ``tests/oracles.py``.
"""

from __future__ import annotations

import numpy as np

from shadowseg import _native
from shadowseg.background import BackgroundModel


def frame_edges(frame: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical central differences for every pixel, as
    float64 (H, W) grids.

    The differences are taken in float64: an integer frame is converted
    first, which is exact below 2**53 and cannot wrap.  The border columns
    and rows differ from their one neighbour and themselves.
    """
    if frame.ndim != 2 or frame.shape[0] < 3 or frame.shape[1] < 3:
        raise ValueError("frame must be at least 3x3")
    grid = np.ascontiguousarray(frame, dtype=np.float64)
    h = np.empty(grid.shape)
    v = np.empty(grid.shape)
    address = _native.address
    _native.library().central_differences(address(grid), *grid.shape, address(h), address(v))
    return h, v


def background_edge_model(bg: BackgroundModel) -> tuple[np.ndarray, np.ndarray]:
    """Mean horizontal and vertical edge vector of the background: the
    central differences of the background means."""
    return frame_edges(bg.mean)
