"""Per-pixel negative log-likelihood potentials for the three labels.

Intensity: background pixels follow the background Gaussian, shadowed
pixels its gain/offset transform (mean gain*mu + offset, variance
gain^2 * var), foreground is uniform over the intensity scale [0, Y_MAX].

Edges: background edge vectors follow the edge model's bivariate normal,
shadowed ones the gain-scaled version, and foreground edges the product
of two triangular densities that put more mass on small differences.
The potentials of one label are spelled out by `intensity_potential`
and `edge_potential` in ``tests/oracles.py``, pure numpy functions whose
arguments broadcast.

`build_potential_tables`, the engine's path, writes all six rows of a
frame in one pass of the `potential_tables` kernel in `_native.c`. Every
scalar log and constant is computed here with the numpy operations of
those two functions, in their order, and numpy takes the per-pixel logs
of the foreground edge row, since libm's log differs from numpy's in the
last bit on some inputs. So the tables are byte-identical to stacking
the two functions over the labels, as `potential_tables` in
``tests/oracles.py`` does.
"""

from __future__ import annotations

import math

import numpy as np

from shadowseg import _native
from shadowseg.energy import FOREGROUND
from shadowseg.shadow import Y_MAX, ShadowParams

# Floor on each triangular factor (as a multiple of 1/Y_MAX^2) so the
# foreground edge energy stays finite when |e| reaches Y_MAX.
EDGE_DENSITY_FLOOR = 0.1

LOG_2PI = float(np.log(2.0 * np.pi))
_FOREGROUND_SCALARS = (np.log(Y_MAX) + 0.0, 1.0 / Y_MAX, Y_MAX * Y_MAX,
                       EDGE_DENSITY_FLOOR / (Y_MAX * Y_MAX))


def build_potential_tables(frame, edge_h, edge_v, bg_mean, mean_h, mean_v,
                           pooled: float, shadow: ShadowParams) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (3, H, W) intensity and edge potential tables, indexed by label-1.

    The six grids are (H, W) each. `pooled` is the scene-wide intensity
    variance, and each edge component's variance is twice that.
    """
    grids = (frame, edge_h, edge_v, bg_mean, mean_h, mean_v)
    shape = np.shape(frame)
    if len(shape) != 2 or any(np.shape(grid) != shape for grid in grids):
        raise ValueError("frame, edges, background mean and edge means must be "
                         f"2-D grids of one shape, got {[np.shape(g) for g in grids]}")
    if np.ndim(pooled) != 0:
        raise ValueError(f"the pooled variance must be a scalar, got shape {np.shape(pooled)}")
    pooled = float(pooled)
    if not (math.isfinite(pooled) and pooled > 0):
        raise ValueError(f"the pooled variance must be finite and positive, got {pooled}")
    grids = [np.ascontiguousarray(grid, dtype=np.float64) for grid in grids]
    edge_var = 2.0 * pooled
    gauss = np.array([_label_constants(gain, offset, pooled, edge_var)
                      for gain, offset in ((1.0, 0.0), (shadow.gain, shadow.offset))])
    u1 = np.empty((3, *shape))
    u2 = np.empty((3, *shape))
    fv = np.empty(shape)
    address = _native.address
    _native.library().potential_tables(
        *[address(grid) for grid in grids], fv.size, address(gauss), edge_var,
        *_FOREGROUND_SCALARS, address(u1), address(u2), address(fv))
    # the kernel left the two triangular factors; numpy's log, not libm's,
    # keeps the foreground edge row byte-identical to the oracle's edge_potential
    fh = u2[FOREGROUND - 1]
    np.log(fh, out=fh)
    np.log(fv, out=fv)
    np.negative(fh, out=fh)
    np.subtract(fh, fv, out=fh)
    return u1, u2


def _label_constants(gain, offset, pooled, edge_var) -> tuple:
    """The per-label constants of `potential_tables` in `_native.c`, with
    the numpy operations of the oracles' intensity_potential and
    edge_potential."""
    var = gain * gain * pooled
    return (gain, offset, 0.5 * (LOG_2PI + np.log(var)), 2.0 * var,
            LOG_2PI + 2.0 * np.log(gain) + 0.5 * np.log(edge_var * edge_var),
            2.0 * gain * gain)


def dump_potentials(u1: np.ndarray, u2: np.ndarray, path) -> None:
    """Raw float64 dump for debugging: six values per pixel, row-major
    (intensity potentials for labels 1..3, then edge potentials)."""
    stacked = np.concatenate([u1, u2], axis=0)          # (6, H, W)
    np.ascontiguousarray(stacked.transpose(1, 2, 0)).tofile(path)
