"""Received-power model and radio-map rasterization.

`source_dbm` is the one forward model: the dBm block of one source at the
cell centres of a row axis and a column axis, log-distance path loss plus a
capped per-meter penalty for the building interior, with both lengths from
one exact clip of each segment, `segment_building_lengths(start, rows, cols,
rects, shape)`. Maps read the cells of a mask from the block at its rows and
columns, add shadowing per source and aggregate in linear milliwatts; they
exist as dBm float grids and 8-bit bitmaps.
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


def segment_building_lengths(start, rows, cols, rects, shape):
    """(segment length, building length) blocks in meters, each of shape
    (len(rows), len(cols)): [i, j] is the segment from start to the centre of
    cell (rows[i], cols[j]), for sorted index vectors rows and cols.

    Start and cells may lie on or off the grid. The building length sums the
    segment clipped (Liang-Barsky, exact) to each of rects, the
    building_rectangles of a grid of the given shape. A rectangle on the grid
    border extends to infinity on that side, so the parts of a segment
    outside the grid are charged to the edge row or column. A segment along a
    grid line, or with no extent along an axis, takes the cells on the higher
    side of the line: coordinate q lies in cell floor(q). The lengths agree
    with a traversal of every cell a segment crosses (tests/oracles.py:
    traverse_all_cells) to within 1e-9 m; they round differently.

    The clip runs per axis: the x slab of each column and the y slab of each
    row, combined over the block whose slabs meet [0, 1]; on a sorted axis
    the cells one rectangle meets are one run. The few rectangles of a
    generated layout (2-8) are clipped in turn; a noisy grid of thousands
    would be slow. Each cell gets the bytes of its own one-cell call.
    """
    a = np.asarray(start, dtype=np.float64).reshape(2)
    dx = np.asarray(cols) + 0.5 - a[0]
    dy = np.asarray(rows) + 0.5 - a[1]
    seg_len = np.hypot(dx[None, :], dy[:, None])
    out = np.zeros(seg_len.shape)
    if out.size == 0:
        return seg_len, out

    # bounds relative to start; a side on the grid border stands for
    # infinity. Clamped to the axes' box widened by 1 m, a rectangle clips
    # as it would unclamped, and one left empty there meets none.
    xlo, xhi = min(dx[0], 0.0) - 1.0, max(dx[-1], 0.0) + 1.0
    ylo, yhi = min(dy[0], 0.0) - 1.0, max(dy[-1], 0.0) + 1.0
    h, w = shape
    top, bottom, left, right = rects.T
    x0 = np.clip(np.where(left == 0, -np.inf, left) - a[0], xlo, xhi)
    x1 = np.clip(np.where(right == w, np.inf, right) - a[0], xlo, xhi)
    y0 = np.clip(np.where(top == 0, -np.inf, top) - a[1], ylo, yhi)
    y1 = np.clip(np.where(bottom == h, np.inf, bottom) - a[1], ylo, yhi)
    x_still, y_still = dx == 0.0, dy == 0.0
    x_step, y_step = np.where(x_still, 1.0, dx), np.where(y_still, 1.0, dy)
    for k in np.flatnonzero((x0 < x1) & (y0 < y1)):
        lo, hi = _slab(x_still, x_step, x0[k], x1[k])
        t0, t1 = np.maximum(0.0, lo), np.minimum(1.0, hi)
        c = np.flatnonzero(t0 < t1)
        lo, hi = _slab(y_still, y_step, y0[k], y1[k])
        r = np.flatnonzero(np.maximum(0.0, lo) < np.minimum(1.0, hi))
        if len(c) == 0 or len(r) == 0:
            continue
        c, r = slice(c[0], c[-1] + 1), slice(r[0], r[-1] + 1)
        b0 = np.maximum(t0[c], lo[r, None])
        b1 = np.minimum(t1[c], hi[r, None])
        out[r, c] += np.maximum(b1 - b0, 0.0) * seg_len[r, c]
    return seg_len, out


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
    # 10 ** ((p - pmax) / 10) in one buffer: an (M, cells) temporary less
    linear = p - pmax
    linear /= 10.0
    np.power(10.0, linear, out=linear)
    total = linear[0]
    for row in linear[1:]:
        total += row
    out = pmax + 10.0 * np.log10(total)
    return float(out) if out.ndim == 0 else out


def _shadow_grid(scenario: Scenario, source_index: int, sigma: float,
                 shape: tuple[int, int]) -> np.ndarray:
    # one stream per (scenario seed, source index); cells consumed row-major
    ss = np.random.SeedSequence([scenario.rng_seed, _SHADOW_TAG, source_index])
    return np.random.default_rng(ss).normal(0.0, sigma, size=shape)


def source_dbm(source: Source, rows, cols, rects, shape,
               params: PropagationParams) -> np.ndarray:
    """dBm block of one source at the cell centres of sorted rows and cols,
    without shadowing, on a grid of the given shape with building_rectangles
    rects. A source at the centre of cell a read at cell b gives the value of
    a source at b read at a (reciprocity)."""
    d, inside = segment_building_lengths(source.position, rows, cols, rects, shape)
    pen = np.minimum(params.penetration_cap, params.beta_penetration * inside)
    return source.tx_power_dbm + source.gain_dbi - path_loss(d, params) - pen


def _per_source_dbm(scenario: Scenario, params: PropagationParams,
                    mask: np.ndarray) -> np.ndarray:
    """dBm field of each source at the cell centres of a boolean mask,
    shadowing included: an (M, mask cells) array, in row-major order, read
    from the block at the rows and columns that hold a mask cell."""
    cells = scenario.layout.cells
    rects, shape = building_rectangles(cells), cells.shape
    rows, cols = np.flatnonzero(mask.any(axis=1)), np.flatnonzero(mask.any(axis=0))
    inner = mask[np.ix_(rows, cols)]
    out = np.empty((len(scenario.sources), np.count_nonzero(mask)))
    for k, src in enumerate(scenario.sources):
        out[k] = source_dbm(src, rows, cols, rects, shape, params)[inner]
        if params.sigma_shadow > 0:
            out[k] -= _shadow_grid(scenario, k, params.sigma_shadow, shape)[mask]
    return out


def rasterize_global(scenario: Scenario, params: PropagationParams) -> RadioMap:
    """Aggregate dBm field at every free cell center; building interiors get
    P_MIN_DBM."""
    layout = scenario.layout
    vals = np.full((layout.height, layout.width), P_MIN_DBM, dtype=np.float64)
    free = layout.cells == 0
    vals[free] = aggregate_rss(_per_source_dbm(scenario, params, free))
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
    _check("r", r, numbers.Real, "positive", lambda r: r > 0)
    layout = scenario.layout
    mask = local_disk_mask(scenario, r)
    bitmap = np.zeros((layout.height, layout.width), dtype=np.uint8)
    if global_map is not None:
        if not global_map.is_dbm:
            raise ValueError("global map must be in dBm")
        bitmap[mask] = encode_bitmap(global_map.values[mask])
        return RadioMap(bitmap)
    mask &= layout.cells == 0
    bitmap[mask] = encode_bitmap(aggregate_rss(_per_source_dbm(scenario, params, mask)))
    return RadioMap(bitmap)
