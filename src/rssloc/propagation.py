"""Received-power model and radio-map rasterization.

Per-source power follows a log-distance path-loss law plus a per-meter
penetration penalty accumulated along the straight ray through building
cells (an exact grid traversal, not ray tracing). Multi-source RSS is
aggregated in linear milliwatts. Maps exist in two encodings: dBm float
grids and 8-bit bitmaps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .scenario import Scenario, disk_cells

MAP_KINDS = ("global", "local", "binarized", "single_source")

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
        if self.d0 <= 0:
            raise ValueError("d0 must be positive")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.sigma_shadow < 0 or self.beta_penetration < 0:
            raise ValueError("sigma_shadow and beta_penetration must be >= 0")


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
    """A 2D scalar field over the grid, in dBm ('dbm') or 8-bit ('bitmap') form."""

    values: np.ndarray
    kind: str
    unit: str

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 2:
            raise ValueError("map values must be 2D")
        if self.kind not in MAP_KINDS:
            raise ValueError(f"unknown map kind {self.kind!r}")
        if self.unit == "bitmap":
            if not np.issubdtype(v.dtype, np.integer):
                raise ValueError("bitmap values must be integers")
            if v.min() < 0 or v.max() > 255:
                raise ValueError("bitmap values must lie in [0, 255]")
            if self.kind == "binarized" and not np.isin(v, (0, 255)).all():
                raise ValueError("binarized maps may only contain 0 and 255")
        elif self.unit != "dbm":
            raise ValueError(f"unknown map unit {self.unit!r}")
        self.values = v

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


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


# Segments traversed together. Only the per-segment arrays (bounding boxes,
# bisection, boundary counts) scale with it: a larger block spends less time
# in per-call numpy overhead, but past this size (16 kB an array) their
# allocations start to fault pages in again, block after block.
_SEGMENTS_PER_BLOCK = 2048

# Slabs evaluated together. It fixes the size of the slab workspace (113
# bytes a slab, about 1.9 MB), whatever the grid and block size, and a
# smaller chunk keeps the buffers closer to cache at more per-call overhead.
_SLABS_PER_CHUNK = 1 << 14


class _SlabWorkspace:
    """Buffers for the slab arithmetic of one chunk of slabs.

    One instance serves every block of every segment_building_lengths call
    in the process, so its pages are faulted in once instead of once per
    block. It is not re-entrant: two traversals running at the same time in
    one process would overwrite each other's slabs. rssloc traverses on one
    thread per process (the pipeline's pool uses processes).
    """

    def __init__(self, slabs: int):
        n = slabs + 1                # a chunk of slabs spans one more boundary
        self.offsets = np.arange(n, dtype=np.float64)
        # per boundary
        self.seg = np.empty(n, dtype=np.int64)
        self.row = np.empty(n, dtype=np.int64)
        self.ts = np.empty(n)
        self.ys = np.empty(n)
        self.y_in_row = np.empty(n)
        self.gathered = np.empty(n)
        # per slab
        self.dt = np.empty(slabs)
        self.tm = np.empty(slabs)
        self.cj = np.empty(slabs, dtype=np.int64)
        self.ka = np.empty(slabs, dtype=np.int64)
        self.occ_a = np.empty(slabs)
        self.fa = np.empty(slabs)
        self.fb = np.empty(slabs)
        self.mask = np.empty(slabs, dtype=bool)


@functools.cache
def _workspace() -> _SlabWorkspace:
    """The process's slab workspace, made on first use, so that processes
    that never traverse (pipeline workers, say) do not hold it."""
    return _SlabWorkspace(_SLABS_PER_CHUNK)


def segment_building_lengths(start, ends, cells: np.ndarray) -> np.ndarray:
    """Exact meters of building interior crossed by each segment start->ends[k].

    Each segment is split at its column crossings (one slab per column, in
    traversal order by construction, so no sorting is needed); the occupied
    row span inside a slab comes from per-column cumulative occupancy, which
    is exact because occupancy is constant on unit cells. Lookups clip to the
    grid, so the parts of a segment outside it are charged to the edge row or
    column. Vectorized over blocks of segments.

    Slabs are built only where a building can be. A summed-area table over
    the segment's clipped cell bounding box skips segments with no building
    there, and the remaining ones keep only the crossings that bound the
    first to last building column of their row band. Every slab that is left
    out would add an exact zero, and the kept ones are summed in traversal
    order, so the result is bit-identical to traversing every column.

    The slab arithmetic runs in chunks of _SLABS_PER_CHUNK slabs on the
    process's one fixed-size _SlabWorkspace, which is not re-entrant: do not
    call this function from two threads of one process at once.
    """
    a = np.asarray(start, dtype=np.float64).reshape(2)
    b = np.atleast_2d(np.asarray(ends, dtype=np.float64))
    h, w = cells.shape
    sat = np.zeros((h + 1, w + 1), dtype=np.int64)
    np.cumsum(np.cumsum(cells != 0, axis=0), axis=1, out=sat[1:, 1:])
    csum = np.zeros((h + 1, w))
    np.cumsum(cells, axis=0, out=csum[1:])
    tables = (sat.ravel(), csum.ravel(), cells.astype(np.float64).ravel())
    out = np.empty(len(b))
    for i in range(0, len(b), _SEGMENTS_PER_BLOCK):
        out[i:i + _SEGMENTS_PER_BLOCK] = _block_lengths(
            a, b[i:i + _SEGMENTS_PER_BLOCK], h, w, *tables)
    return out


def _block_lengths(a, b, h, w, sat, csum, occ):
    """segment_building_lengths for one block of segments, given the flat
    summed-area, per-column cumulative and occupancy tables of the grid."""
    out = np.zeros(len(b))

    # clipped cell bounding box of every lookup a + t * (b - a), t in [0, 1]
    # (rounding is monotone, so its ends at t = 0 and t = 1 bound it); r0 and
    # r1 are the flat offsets of the summed-area rows that bound its rows
    dx = b[:, 0] - a[0]
    dy = b[:, 1] - a[1]
    x1 = a[0] + dx
    y1 = a[1] + dy
    c0 = np.clip(np.floor(np.minimum(a[0], x1)).astype(np.int64), 0, w - 1)
    c1 = np.clip(np.floor(np.maximum(a[0], x1)).astype(np.int64), 0, w - 1)
    r0 = np.clip(np.floor(np.minimum(a[1], y1)).astype(np.int64), 0, h - 1) * (w + 1)
    r1 = (np.clip(np.floor(np.maximum(a[1], y1)).astype(np.int64), 0, h - 1) + 1) * (w + 1)

    def occupied(lo, hi):
        # building cells in columns lo..hi of each segment's row band
        return sat[r1 + hi + 1] - sat[r0 + hi + 1] - sat[r1 + lo] + sat[r0 + lo]

    hit = np.flatnonzero(occupied(c0, c1) > 0)
    if len(hit) == 0:
        return out
    b, dx, dy = b[hit], dx[hit], dy[hit]
    c0, c1, r0, r1 = c0[hit], c1[hit], r0[hit], r1[hit]

    # first (cl) and last (cr) building column of the row band, by bisection
    cl, hi = c0.copy(), c1.copy()
    cr, lo = c1.copy(), c0.copy()
    for _ in range(int(w).bit_length()):
        mid = (cl + hi) // 2
        left = occupied(c0, mid) > 0
        hi = np.where(left, mid, hi)
        cl = np.where(left, cl, mid + 1)
        mid = (lo + cr + 1) // 2
        right = occupied(mid, c1) > 0
        lo = np.where(right, mid, lo)
        cr = np.where(right, cr, mid - 1)

    # crossing lines bounding columns cl..cr, ascending; an edge column also
    # stands for everything beyond the grid on its side
    m_lo = np.ceil(np.minimum(a[0], b[:, 0]))
    m_hi = np.floor(np.maximum(a[0], b[:, 0]))
    first = np.where(cl > 0, np.maximum(m_lo, cl), m_lo)
    last = np.where(cr < w - 1, np.minimum(m_hi, cr + 1), m_hi)
    crosses = (dx != 0.0) & (m_lo <= m_hi)
    cut_lo = crosses & (first > m_lo)
    cut_hi = crosses & (last < m_hi)
    counts = np.where(crosses, np.maximum(last - first + 1, 0), 0).astype(np.int64)

    # slab boundaries in traversal order, numbered across the block: 0 and 1
    # stay unless lines were cut on that side; boundary bstart + i of a
    # segment lies on line origin + step * (bstart + i)
    down = dx < 0
    keep0 = np.where(down, ~cut_hi, ~cut_lo)
    keep1 = np.where(down, ~cut_lo, ~cut_hi)
    nb = counts + keep0 + keep1
    bstart = np.cumsum(nb) - nb
    bend = bstart + nb - 1
    step = np.where(down, -1.0, 1.0)
    origin = np.where(down, last, first) - step * (bstart + keep0)

    # one slab per pair of consecutive boundaries; the pairs that straddle
    # two segments (they start at a segment's last boundary) add nothing
    block = (bstart, bstart[keep0], bend[keep1], bend[:-1], origin, step,
             np.where(dx == 0.0, 1.0, dx), dx, dy, np.hypot(dx, dy))
    lengths = np.zeros(len(hit))
    slabs = int(bend[-1])
    for s in range(0, slabs, _SLABS_PER_CHUNK):
        _add_chunk_lengths(lengths, s, min(_SLABS_PER_CHUNK, slabs - s),
                           a, h, w, csum, occ, block)
    out[hit] = lengths
    return out


def _between(positions, lo, n):
    """The sorted positions in [lo, lo + n), relative to lo."""
    i, j = np.searchsorted(positions, (lo, lo + n))
    return positions[i:j] - lo


def _gather(values, index, out):
    # mode="clip" lets take write straight into out; every index is valid
    return np.take(values, index, out=out, mode="clip")


def _add_chunk_lengths(lengths, s, m, a, h, w, csum, occ, block):
    """Add the building lengths of slabs s .. s + m - 1 of a block to their
    segments' entries of lengths, in traversal order.

    Slab j lies between boundaries j and j + 1 and belongs to the segment of
    boundary j. Every array is a view of the workspace, written in place with
    the float expressions and operand order of the reference traversal.
    """
    (bstart, zero_at, one_at, straddle, origin, step, dx_or_one, dx, dy,
     seg_len) = block
    ws = _workspace()
    n = m + 1

    # segment of each boundary s .. s + m: the segments that start up to it,
    # less one
    seg = ws.seg[:n]
    seg.fill(0)
    np.add.at(seg, _between(bstart, s, n), 1)
    seg[0] += np.searchsorted(bstart, s) - 1
    np.cumsum(seg, out=seg)

    # t of each boundary's crossing line, clipped to the segment; its y and
    # the clipped row of y
    g = ws.gathered[:n]
    ts = ws.ts[:n]
    np.add(ws.offsets[:n], s, out=ts)
    np.multiply(_gather(step, seg, g), ts, out=ts)
    np.add(_gather(origin, seg, g), ts, out=ts)
    np.subtract(ts, a[0], out=ts)
    np.divide(ts, _gather(dx_or_one, seg, g), out=ts)
    np.clip(ts, 0.0, 1.0, out=ts)
    ts[_between(zero_at, s, n)] = 0.0
    ts[_between(one_at, s, n)] = 1.0
    ys = ws.ys[:n]
    np.multiply(ts, _gather(dy, seg, g), out=ys)
    np.add(a[1], ys, out=ys)
    iy = ws.row[:n]
    np.copyto(iy, np.floor(ys, out=g), casting="unsafe")
    np.clip(iy, 0, h - 1, out=iy)
    y_in_row = ws.y_in_row[:n]
    np.subtract(ys, iy, out=y_in_row)
    row = np.multiply(iy, w, out=iy)

    # slab lengths in t; the straddling slabs get dt = 0
    ta, tb = ts[:-1], ts[1:]
    dt = ws.dt[:m]
    np.subtract(tb, ta, out=dt)
    dt[_between(straddle, s, m)] = 0.0

    # column of each slab from its midpoint; rows via cumulative occupancy
    seg = seg[:-1]
    g = g[:-1]
    tm = ws.tm[:m]
    np.multiply(0.5, np.add(ta, tb, out=tm), out=tm)
    x = _gather(dx, seg, g)
    np.multiply(tm, x, out=x)
    np.add(a[0], x, out=x)
    cj = ws.cj[:m]
    np.copyto(cj, np.floor(x, out=x), casting="unsafe")
    np.clip(cj, 0, w - 1, out=cj)
    ka = np.add(row[:-1], cj, out=ws.ka[:m])
    kb = np.add(row[1:], cj, out=cj)
    occ_a = _gather(occ, ka, ws.occ_a[:m])
    fa = np.multiply(occ_a, y_in_row[:-1], out=ws.fa[:m])
    np.add(_gather(csum, ka, g), fa, out=fa)
    fb = _gather(occ, kb, ws.fb[:m])
    np.multiply(fb, y_in_row[1:], out=fb)
    np.add(_gather(csum, kb, g), fb, out=fb)
    span = np.subtract(ys[1:], ys[:-1], out=tm)
    frac = np.subtract(fb, fa, out=fb)
    with np.errstate(invalid="ignore", divide="ignore"):
        np.divide(frac, span, out=frac)
    mask = ws.mask[:m]
    np.copyto(frac, occ_a, where=np.equal(span, 0.0, out=mask))

    # dt * seg_len * frac where dt > 0, else 0, summed per segment in order
    # (np.add.at adds one slab at a time, as np.bincount does)
    slab_len = np.multiply(dt, _gather(seg_len, seg, g), out=fa)
    np.multiply(slab_len, frac, out=slab_len)
    np.logical_not(np.greater(dt, 0.0, out=mask), out=mask)
    np.copyto(slab_len, 0.0, where=mask)
    np.add.at(lengths, seg, slab_len)


def aggregate_rss(powers) -> float:
    """Total RSS of simultaneous per-source powers (dBm), summed in milliwatts."""
    p = np.asarray(powers, dtype=np.float64).ravel()
    if p.size == 0:
        raise ValueError("cannot aggregate an empty power list")
    # factored around the max so the dominance bounds
    # max <= total <= max + 10 log10(n) hold exactly in floating point
    pmax = float(p.max())
    return pmax + float(10.0 * np.log10(np.sum(10.0 ** ((p - pmax) / 10.0))))


def _shadow_grid(scenario: Scenario, source_index: int, sigma: float,
                 shape: tuple[int, int]) -> np.ndarray:
    # one stream per (scenario seed, source index); cells consumed row-major
    ss = np.random.SeedSequence([scenario.rng_seed & 0xFFFFFFFFFFFFFFFF,
                                 _SHADOW_TAG, source_index])
    return np.random.default_rng(ss).normal(0.0, sigma, size=shape)


def _per_source_linear(scenario: Scenario, params: PropagationParams,
                       rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Linear-milliwatt field of each source at the given cell centers.

    Returns an (M, len(rows)) array; the caller picks the cells (all free
    cells for global maps, a disk union for local ones).
    """
    cx = cols.astype(np.float64) + 0.5
    cy = rows.astype(np.float64) + 0.5
    ends = np.column_stack([cx, cy])
    out = np.empty((len(scenario.sources), len(rows)))
    for k, src in enumerate(scenario.sources):
        d = np.hypot(cx - src.x, cy - src.y)
        pen = np.minimum(params.penetration_cap,
                         params.beta_penetration
                         * segment_building_lengths(src.position, ends,
                                                    scenario.layout.cells))
        rx = src.tx_power_dbm + src.gain_dbi - path_loss(d, params) - pen
        if params.sigma_shadow > 0:
            shape = (scenario.layout.height, scenario.layout.width)
            rx = rx - _shadow_grid(scenario, k, params.sigma_shadow, shape)[rows, cols]
        out[k] = 10.0 ** (rx / 10.0)
    return out


def rasterize_global(scenario: Scenario, params: PropagationParams) -> RadioMap:
    """Aggregate dBm field at every free cell center; building interiors get
    P_MIN_DBM."""
    layout = scenario.layout
    vals = np.full((layout.height, layout.width), P_MIN_DBM, dtype=np.float64)
    rows, cols = np.nonzero(layout.cells == 0)
    linear = _per_source_linear(scenario, params, rows, cols)
    vals[rows, cols] = 10.0 * np.log10(linear.sum(axis=0))
    return RadioMap(vals, "global", "dbm")


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
        if global_map.unit != "dbm":
            raise ValueError("global map must be in dBm")
        bitmap[mask] = encode_bitmap(global_map.values[mask])
        return RadioMap(bitmap, "local", "bitmap")
    rows, cols = np.nonzero(mask & (layout.cells == 0))
    if len(rows):
        linear = _per_source_linear(scenario, params, rows, cols)
        bitmap[rows, cols] = encode_bitmap(10.0 * np.log10(linear.sum(axis=0)))
    return RadioMap(bitmap, "local", "bitmap")
