"""Received-power model and radio-map rasterization.

`source_dbm` is the one forward model: the dBm field of one source at any
points, log-distance path loss plus a capped per-meter penalty for the
building interior that `segment_building_lengths(start, ends, rects, shape)`
clips from each straight segment (exact, not ray tracing). Maps add
shadowing per source and aggregate in linear milliwatts; they exist as dBm
float grids and 8-bit bitmaps.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario, Source, _check, disk_cells

# stream tag for shadowing draws, mixed with (scenario seed, source index)
_SHADOW_TAG = 0x5AD0


@dataclass
class PropagationParams:
    """Channel constants; sigma_shadow = 0 gives a fully deterministic field."""

    l0: float = 38.5              # dB at the reference distance
    d0: float = 1.0               # m
    eta: float = 3.0              # path-loss exponent
    sigma_shadow: float = 0.0     # dB, combined shadowing std
    beta_penetration: float = 2.0  # dB per meter of building interior
    penetration_cap: float = 60.0  # dB

    def __post_init__(self):
        _check("l0", self.l0, numbers.Real, "a finite number")
        for name in ("d0", "eta"):
            _check(name, getattr(self, name), numbers.Real, "a finite number > 0",
                   lambda value: value > 0)
        for name in ("sigma_shadow", "beta_penetration", "penetration_cap"):
            _check(name, getattr(self, name), numbers.Real, "a finite number >= 0",
                   lambda value: value >= 0)


# The 8-bit scale: P_MIN_DBM maps to 0 and P_MAX_DBM to 255. P_MIN_DBM is
# also the value of building cells in every dBm map.
P_MIN_DBM = -110.0
P_MAX_DBM = 0.0


def encode_bitmap(dbm) -> np.ndarray:
    """Affine dBm -> [0, 255] quantization, round half up."""
    t = (np.asarray(dbm, dtype=np.float64) - P_MIN_DBM) / (P_MAX_DBM - P_MIN_DBM)
    t = np.clip(t, 0.0, 1.0)
    return np.floor(255.0 * t + 0.5).astype(np.uint8)


@dataclass
class RadioMap:
    """A 2D scalar field over the grid: float values are dBm, integer values
    an 8-bit bitmap in 0..255."""

    values: np.ndarray

    def __post_init__(self):
        self.values = v = np.asarray(self.values)
        if v.ndim != 2:
            raise ValueError("map values must be 2D")
        if np.issubdtype(v.dtype, np.integer):
            if v.min() < 0 or v.max() > 255:
                raise ValueError("bitmap values must lie in [0, 255]")
        elif not self.is_dbm:
            raise ValueError(f"map values must be float (dBm) or integer "
                             f"(bitmap), not {v.dtype}")

    @property
    def is_dbm(self) -> bool:
        return np.issubdtype(self.values.dtype, np.floating)


def _grid(map_or_values) -> np.ndarray:
    """The value grid of a RadioMap, or the argument as an array."""
    if isinstance(map_or_values, RadioMap):
        return map_or_values.values
    return np.asarray(map_or_values)


def path_loss(d, params: PropagationParams):
    """Log-distance loss in dB; d is clamped to d0 below the reference distance."""
    d = np.maximum(np.asarray(d, dtype=np.float64), params.d0)
    out = params.l0 + 10.0 * params.eta * np.log10(d / params.d0)
    return float(out) if out.ndim == 0 else out


def building_rectangles(cells: np.ndarray) -> np.ndarray:
    """Disjoint rectangles whose union is the grid's building cells.

    Rows (top, bottom, left, right) of half-open cell index ranges: the
    maximal runs of each grid row, with identical runs on consecutive rows
    merged into one rectangle.
    """
    edges = np.diff((np.asarray(cells) != 0).astype(np.int8), axis=1,
                    prepend=0, append=0)
    rows, left = np.nonzero(edges == 1)
    right = np.nonzero(edges == -1)[1]
    order = np.lexsort((rows, right, left))
    rows, left, right = rows[order], left[order], right[order]
    top = np.ones(len(rows), dtype=bool)
    top[1:] = ((left[1:] != left[:-1]) | (right[1:] != right[:-1])
               | (rows[1:] != rows[:-1] + 1))
    bottom = np.ones(len(rows), dtype=bool)
    bottom[:-1] = top[1:]
    first, last = np.flatnonzero(top), np.flatnonzero(bottom)
    return np.column_stack([rows[first], rows[last] + 1, left[first], right[first]])


def segment_building_lengths(start, ends, rects, shape) -> np.ndarray:
    """Exact meters of building interior crossed by each segment start->ends[k].

    The sum, over rects (the building_rectangles of a grid of the given
    shape), of each segment's length clipped to the rectangle (Liang-Barsky).
    Every segment is clipped to every rectangle: a generated layout has few
    (2-5 on a 100x100 grid with 3 buildings, 5-8 on 200x200 with 6), while a
    noisy grid of thousands would be slow. A rectangle on the grid border
    extends to infinity on that side, so the parts of a segment outside the
    grid are charged to the edge row or column. A segment along a grid line,
    or with no extent along an axis, takes the cells on the higher side of
    the line: coordinate q lies in cell floor(q). The lengths agree with a
    traversal of every cell a segment crosses (tests/oracles.py:
    traverse_all_cells) to within 1e-9 m; the two round differently.

    Ends that are all centres of the grid's cells are clipped per grid axis
    over their bounding window of cells, which the grid bounds: the x slab of
    each window column and the y slab of each window row, combined over the
    window. Other ends are clipped one by one. Each end gets the bytes of its
    own one-end call either way.
    """
    a = np.asarray(start, dtype=np.float64).reshape(2)
    e = np.asarray(ends, dtype=np.float64).reshape(-1, 2)
    if len(e) == 0 or len(rects) == 0:
        return np.zeros(len(e))

    # bounds relative to start; a side on the grid border stands for
    # infinity. Clamped to the segments' bounding box widened by 1 m, a
    # rectangle clips them as before, and one left empty there meets none.
    # dx and dy as 1-D arrays: the (N, 2) e - a and its min(axis=0) are slower
    dx, dy = e[:, 0] - a[0], e[:, 1] - a[1]
    xlo, xhi = min(dx.min(), 0.0) - 1.0, max(dx.max(), 0.0) + 1.0
    ylo, yhi = min(dy.min(), 0.0) - 1.0, max(dy.max(), 0.0) + 1.0
    h, w = shape
    top, bottom, left, right = rects.T
    x0 = np.clip(np.where(left == 0, -np.inf, left) - a[0], xlo, xhi)
    x1 = np.clip(np.where(right == w, np.inf, right) - a[0], xlo, xhi)
    y0 = np.clip(np.where(top == 0, -np.inf, top) - a[1], ylo, yhi)
    y1 = np.clip(np.where(bottom == h, np.inf, bottom) - a[1], ylo, yhi)
    keep = np.flatnonzero((x0 < x1) & (y0 < y1))

    cells = np.floor(e)
    col, row = cells[:, 0], cells[:, 1]
    j0, j1, i0, i1 = col.min(), col.max(), row.min(), row.max()
    if (e - cells == 0.5).all() and 0 <= j0 and j1 < w and 0 <= i0 and i1 < h:
        window = _window_lengths(np.arange(j0, j1 + 1) + 0.5 - a[0],
                                 np.arange(i0, i1 + 1) + 0.5 - a[1],
                                 x0[keep], x1[keep], y0[keep], y1[keep])
        return window.ravel().take(((row - i0) * (j1 - j0 + 1)
                                    + (col - j0)).astype(np.intp))

    out = np.zeros(len(e))
    seg_len = np.hypot(dx, dy)
    x_still, y_still = dx == 0.0, dy == 0.0
    x_step, y_step = np.where(x_still, 1.0, dx), np.where(y_still, 1.0, dy)
    for k in keep:
        lo, hi = _slab(x_still, x_step, x0[k], x1[k])
        t0, t1 = np.maximum(0.0, lo), np.minimum(1.0, hi)
        lo, hi = _slab(y_still, y_step, y0[k], y1[k])
        t0, t1 = np.maximum(t0, lo), np.minimum(t1, hi)
        out += np.maximum(t1 - t0, 0.0) * seg_len
    return out


def _window_lengths(dx, dy, x0, x1, y0, y1) -> np.ndarray:
    """The clipped lengths of the segments from the origin to (dx[j], dy[i]),
    a (len(dy), len(dx)) window, summed over the rectangles [x0, x1) x
    [y0, y1) in order. Each rectangle is combined only over the block of rows
    and columns whose slabs meet [0, 1]; outside it, each term is 0.0."""
    seg_len = np.hypot(dx[None, :], dy[:, None])
    out = np.zeros(seg_len.shape)
    x_still, y_still = dx == 0.0, dy == 0.0
    x_step, y_step = np.where(x_still, 1.0, dx), np.where(y_still, 1.0, dy)
    for k in range(len(x0)):
        lo, hi = _slab(x_still, x_step, x0[k], x1[k])
        t0, t1 = np.maximum(0.0, lo), np.minimum(1.0, hi)
        cols = np.flatnonzero(t0 < t1)
        ylo, yhi = _slab(y_still, y_step, y0[k], y1[k])
        rows = np.flatnonzero(np.maximum(0.0, ylo) < np.minimum(1.0, yhi))
        if len(cols) == 0 or len(rows) == 0:
            continue
        c, r = slice(cols[0], cols[-1] + 1), slice(rows[0], rows[-1] + 1)
        b0 = np.maximum(t0[c], ylo[r, None])
        b1 = np.minimum(t1[c], yhi[r, None])
        out[r, c] += np.maximum(b1 - b0, 0.0) * seg_len[r, c]
    return out


def _slab(still, step, q0, q1):
    """The bounds (lo, hi) of the t with q0 <= p t < q1 (Liang-Barsky), where
    step is p, or 1 where p = 0 (still); for p = 0, every t if q0 <= 0 < q1
    and none otherwise."""
    ta = np.where(still, -np.inf if q0 <= 0.0 < q1 else np.inf, q0 / step)
    tb = np.where(still, np.inf, q1 / step)
    return np.minimum(ta, tb), np.maximum(ta, tb)


def aggregate_rss(powers):
    """Total RSS of simultaneous per-source powers (dBm), summed in milliwatts
    over the first axis: a list gives a float, an (M, cells) array one total
    per cell."""
    p = np.atleast_1d(np.asarray(powers, dtype=np.float64))
    if len(p) == 0:
        raise ValueError("cannot aggregate an empty power list")
    # factored around the max so that max <= total <= max + 10 log10(n) hold
    # exactly in floating point; added in order along the first axis, so a
    # list and each column of an array round alike
    pmax = p.max(axis=0)
    linear = 10.0 ** ((p - pmax) / 10.0)
    total = linear[0]
    for row in linear[1:]:
        total = total + row
    out = pmax + 10.0 * np.log10(total)
    return float(out) if out.ndim == 0 else out


def _shadow_grid(scenario: Scenario, source_index: int, sigma: float,
                 shape: tuple[int, int]) -> np.ndarray:
    # one stream per (scenario seed, source index); cells consumed row-major
    ss = np.random.SeedSequence([scenario.rng_seed, _SHADOW_TAG, source_index])
    return np.random.default_rng(ss).normal(0.0, sigma, size=shape)


def source_dbm(source: Source, points, rects, shape,
               params: PropagationParams) -> np.ndarray:
    """dBm field of one source at each (x, y) row of points, without
    shadowing, on a grid of the given shape with building_rectangles rects.
    Moving the source from a to b and reading at a instead of b gives the
    same value (reciprocity)."""
    p = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    d = np.hypot(p[:, 0] - source.x, p[:, 1] - source.y)
    pen = np.minimum(params.penetration_cap, params.beta_penetration
                     * segment_building_lengths(source.position, p, rects, shape))
    return source.tx_power_dbm + source.gain_dbi - path_loss(d, params) - pen


def _per_source_dbm(scenario: Scenario, params: PropagationParams,
                    rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """dBm field of each source at the given cell centers, shadowing included.

    Returns an (M, len(rows)) array; the caller picks the cells (all free
    cells for global maps, a disk union for local ones).
    """
    points = np.column_stack([cols + 0.5, rows + 0.5])
    cells = scenario.layout.cells
    rects, shape = building_rectangles(cells), cells.shape
    out = np.empty((len(scenario.sources), len(rows)))
    for k, src in enumerate(scenario.sources):
        out[k] = source_dbm(src, points, rects, shape, params)
        if params.sigma_shadow > 0:
            out[k] -= _shadow_grid(scenario, k, params.sigma_shadow, shape)[rows, cols]
    return out


def rasterize_global(scenario: Scenario, params: PropagationParams) -> RadioMap:
    """Aggregate dBm field at every free cell center; building interiors get
    P_MIN_DBM."""
    layout = scenario.layout
    vals = np.full((layout.height, layout.width), P_MIN_DBM, dtype=np.float64)
    rows, cols = np.nonzero(layout.cells == 0)
    vals[rows, cols] = aggregate_rss(_per_source_dbm(scenario, params, rows, cols))
    return RadioMap(vals)


def local_disk_mask(scenario: Scenario, r: float) -> np.ndarray:
    """Boolean mask of cells whose center is within r of at least one source."""
    mask = np.zeros(scenario.layout.cells.shape, dtype=bool)
    for src in scenario.sources:
        mask[disk_cells(src.x, src.y, r, mask.shape)] = True
    return mask


def ground_truth_local(scenario: Scenario, params: PropagationParams, r: float,
                       global_map: RadioMap | None = None) -> RadioMap:
    """Bitmap of the global field zeroed outside the union of radius-r source disks.

    When no precomputed global map is supplied, the field is evaluated only at
    the in-disk cells, which is equivalent and much cheaper.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    layout = scenario.layout
    mask = local_disk_mask(scenario, r)
    bitmap = np.zeros((layout.height, layout.width), dtype=np.uint8)
    if global_map is not None:
        if not global_map.is_dbm:
            raise ValueError("global map must be in dBm")
        bitmap[mask] = encode_bitmap(global_map.values[mask])
        return RadioMap(bitmap)
    rows, cols = np.nonzero(mask & (layout.cells == 0))
    bitmap[rows, cols] = encode_bitmap(
        aggregate_rss(_per_source_dbm(scenario, params, rows, cols)))
    return RadioMap(bitmap)
