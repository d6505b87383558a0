"""World model: rasterized building layouts and continuous transmitter placements.

Coordinate convention used throughout the package: x runs along grid columns,
y along grid rows, origin at the top-left corner, 1 pixel = 1 meter. A
continuous point (x, y) falls into cell (row=floor(y), col=floor(x)); cell
(i, j) has its center at (j + 0.5, i + 0.5).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

MAX_SOURCES = 16
DEFAULT_TX_POWER_DBM = 24.0
DEFAULT_ANTENNA_GAIN_DBI = 10.0


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integer ranges starts[k]:starts[k] + lengths[k], concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths,
                                                lengths)


def _runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maximal runs of nonzero cells in each row of a 2-D mask, in raster
    order, as the flat indices of their first and one-past-last cells in the
    mask widened by one zero column (cell (i, j) at i * (w + 1) + j)."""
    h, w = mask.shape
    flat = np.zeros(h * (w + 1) + 1, dtype=bool)
    flat[1:].reshape(h, w + 1)[:, :w] = mask
    # the zero column ends every run in its own row, so edges alternate
    edges = np.flatnonzero(flat[1:] != flat[:-1])
    return edges[0::2], edges[1::2]


def _run_components(first: np.ndarray, end: np.ndarray, w: int,
                    connectivity: int) -> tuple[np.ndarray, np.ndarray]:
    """The component label of each run of a mask w cells wide (_runs), numbered
    1..n in raster order of each component's first pixel, and the index of
    each component's first run.

    Runs on adjacent rows join when their column spans overlap, at
    8-connectivity each span widened by one column, and the joins are
    resolved by min-label propagation with pointer jumping (after He, Chao
    and Suzuki, "A run-based two-scan labeling algorithm", IEEE TIP 17(5),
    2008)."""
    n = len(first)
    reach = 1 if connectivity == 8 else 0
    # the runs of the row above that end after a run's first column and start
    # before its end, both widened by reach, are a contiguous slice lo:hi
    lo = np.searchsorted(end, first - (w + 1) - reach, side="right")
    hi = np.searchsorted(first, end - (w + 1) + reach, side="left")
    below = np.repeat(np.arange(n), hi - lo)
    above = _ranges(lo, hi - lo)
    parent = np.arange(n)
    while True:
        # every parent is a root here: hook the larger root of each join
        # that spans two trees to the smaller, then flatten the trees
        pa, pb = parent[above], parent[below]
        split = pa != pb
        if not split.any():
            break
        pa, pb = pa[split], pb[split]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while True:
            jumped = parent[parent]
            if (jumped == parent).all():
                break
            parent = jumped
    # a component's root is its first run, the one holding its first pixel
    roots = parent == np.arange(n)
    return np.cumsum(roots)[parent], np.flatnonzero(roots)


def label_by_bbox(mask: np.ndarray, connectivity: int) -> tuple[np.ndarray, list]:
    """The connected components of mask's nonzero cells at 4- or
    8-connectivity: an int32 grid of labels, 0 for background and 1..n in
    order of the (top, left) corner of each component's bounding box, ties
    kept in raster order of the components' first pixels, and each
    component's bounding-box (rows, cols) slices in label order."""
    h, w = mask.shape
    first, end = _runs(mask)
    labels, heads = _run_components(first, end, w, connectivity)
    # boxes in raster label order: top, left, one-past bottom and right
    rows = first // (w + 1)
    boxes = np.zeros((len(heads), 4), dtype=np.intp)
    boxes[:, 0] = rows[heads]
    boxes[:, 1] = w
    np.minimum.at(boxes[:, 1], labels - 1, first - rows * (w + 1))
    np.maximum.at(boxes[:, 2], labels - 1, rows + 1)
    np.maximum.at(boxes[:, 3], labels - 1, end - rows * (w + 1))
    order = np.lexsort((boxes[:, 1], boxes[:, 0]))
    rank = np.zeros(len(order) + 1, dtype=np.int32)
    rank[order + 1] = np.arange(1, len(order) + 1)
    grid = np.zeros(h * w, dtype=np.int32)
    # the widened layout puts row i's cells i places later than the grid
    grid[_ranges(first - rows, end - first)] = np.repeat(rank[labels], end - first)
    return grid.reshape(h, w), [(slice(top, bottom), slice(left, right))
                                for top, left, bottom, right in boxes[order].tolist()]


def dilate(mask: np.ndarray) -> np.ndarray:
    """Binary dilation of mask by the 3x3 square, nothing beyond its border:
    the OR of its nine shifted copies, taken as three along rows, then three
    along columns."""
    h, w = mask.shape
    pad = np.zeros((h + 2, w + 2), dtype=bool)
    pad[1:-1, 1:-1] = mask
    rows = pad[:, :-2] | pad[:, 1:-1] | pad[:, 2:]
    return rows[:-2] | rows[1:-1] | rows[2:]


def _check(name: str, value, kind, noun: str, holds=lambda value: True,
           error=ValueError):
    """error "<name> must be <noun>" unless value is a finite kind instance
    for which holds is true. bool is a number to Python, but True is no
    size, count or seed, and as an interval would name a samples/True/."""
    if isinstance(value, bool) or not isinstance(value, kind) \
            or not -math.inf < value < math.inf or not holds(value):
        raise error(f"{name} must be {noun}, not {value!r}")


class GenerationError(RuntimeError):
    """Generation could not satisfy its constraints for the config given."""


class PlacementError(GenerationError):
    """Rejection sampling ran out of attempts while placing sources."""


@dataclass
class BuildingLayout:
    """Binary occupancy grid; 1 = building interior, 0 = free space."""

    cells: np.ndarray

    def __post_init__(self):
        cells = np.asarray(self.cells)
        if cells.ndim != 2:
            raise ValueError("layout grid must be 2D")
        if cells.shape[0] < 8 or cells.shape[1] < 8:
            raise ValueError("layout must be at least 8x8 cells")
        if not np.isin(cells, (0, 1)).all():
            raise ValueError("occupancy values must be exactly 0 or 1")
        self.cells = cells.astype(np.uint8)

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    def is_free(self, x: float, y: float) -> bool:
        i, j = int(math.floor(y)), int(math.floor(x))
        if not (0 <= i < self.height and 0 <= j < self.width):
            return False
        return self.cells[i, j] == 0

    def free_fraction(self) -> float:
        return 1.0 - float(self.cells.mean())


@dataclass
class Source:
    """A transmitter at a continuous in-map position."""

    x: float
    y: float
    tx_power_dbm: float = DEFAULT_TX_POWER_DBM
    gain_dbi: float = DEFAULT_ANTENNA_GAIN_DBI

    @property
    def position(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass
class Scenario:
    """A layout plus the ground-truth sources placed on it."""

    layout: BuildingLayout
    sources: list[Source]
    id: str
    rng_seed: int

    def __post_init__(self):
        _check("rng_seed", self.rng_seed, numbers.Integral, "an integer >= 0",
               lambda n: n >= 0)
        check_placement(len(self.sources))
        for s in self.sources:
            if not (0 <= s.x < self.layout.width and 0 <= s.y < self.layout.height):
                raise ValueError(f"source ({s.x}, {s.y}) outside the map")
            if not self.layout.is_free(s.x, s.y):
                raise ValueError(f"source ({s.x}, {s.y}) lies inside a building")

    @property
    def m(self) -> int:
        return len(self.sources)

    def true_points(self) -> list[tuple[float, float]]:
        return [s.position for s in self.sources]


def generate_layout(width: int, height: int, n_buildings: int, seed,
                    max_side: int = 48) -> BuildingLayout:
    """Drop axis-aligned rectangles (union; overlaps allowed), with sides of
    8..max_side cells, onto a free grid.

    A 1-cell free margin is kept at the border so routes always exist; the
    whole placement is retried, up to 1000 times, until at least 30% of the
    grid stays free.
    """
    if n_buildings < 0:
        raise ValueError("n_buildings must be >= 0")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        cells = np.zeros((height, width), dtype=np.uint8)
        for _ in range(n_buildings):
            bw = min(int(rng.integers(8, max_side + 1)), width - 2)
            bh = min(int(rng.integers(8, max_side + 1)), height - 2)
            j0 = int(rng.integers(1, width - 1 - bw + 1))
            i0 = int(rng.integers(1, height - 1 - bh + 1))
            cells[i0:i0 + bh, j0:j0 + bw] = 1
        layout = BuildingLayout(cells)
        if layout.free_fraction() >= 0.3:
            return layout
    raise GenerationError(f"could not reach 30% free cells with {n_buildings} "
                          "buildings after 1000 retries")


def disk_cells(x: float, y: float, r: float, shape) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices, in row-major order, of the cells of a grid of
    the given shape whose center lies within r meters of (x, y)."""
    h, w = shape
    i0, i1 = max(0, math.floor(y - r - 0.5)), min(h, math.ceil(y + r) + 1)
    j0, j1 = max(0, math.floor(x - r - 0.5)), min(w, math.ceil(x + r) + 1)
    ii = np.arange(i0, i1)[:, None]   # empty ranges when the disk misses the grid
    jj = np.arange(j0, j1)[None, :]
    rows, cols = np.nonzero((jj + 0.5 - x) ** 2 + (ii + 0.5 - y) ** 2 <= r * r)
    return rows + i0, cols + j0


def expected_disk_area(r: float) -> int:
    """Pixel count of a radius-r disk centered on a pixel center: the integer
    offsets (di, dj) with |di|, |dj| <= floor(r) and di**2 + dj**2 <= r * r,
    the cells disk_cells selects. Counted row by row, in O(r); an integer is
    at most the float r * r exactly when it is at most its floor."""
    n, bound = math.floor(r), math.floor(r * r)
    return sum(2 * min(math.isqrt(bound - di * di), n) + 1 for di in range(-n, n + 1))


def _connected(rows: np.ndarray, cols: np.ndarray) -> bool:
    """True when the cells form exactly one 8-connected region."""
    if len(rows) == 0:
        return False
    i0, j0 = rows.min(), cols.min()
    window = np.zeros((rows.max() - i0 + 1, cols.max() - j0 + 1), dtype=bool)
    window[rows - i0, cols - j0] = True
    return len(_run_components(*_runs(window), window.shape[1], 8)[1]) == 1


def _free_disk(x, y, r, layout: BuildingLayout):
    """The (rows, cols) of the free cells of the radius-r disk, and whether
    every cell of the disk is free."""
    rows, cols = disk_cells(x, y, r, layout.cells.shape)
    free = layout.cells[rows, cols] == 0
    return (rows[free], cols[free]), bool(free.all())


def _block(blocked: np.ndarray, disk) -> None:
    """Mark the disk's cells and their 8-neighbours as taken."""
    rows, cols = disk
    i0, j0 = max(rows.min() - 1, 0), max(cols.min() - 1, 0)
    window = blocked[i0:rows.max() + 2, j0:cols.max() + 2]   # a view into blocked
    cells = np.zeros_like(window)
    cells[rows - i0, cols - j0] = True
    window |= dilate(cells)


def _draw(layout: BuildingLayout, free: np.ndarray, rng, placed: list[Source],
          min_spacing: float, r: float | None, blocked: np.ndarray) -> Source | None:
    """One rejection-sampling attempt: a uniform point in a uniformly drawn
    free cell, or None when it lies closer than min_spacing to a placed source.

    With r given, the free pixels of its radius-r disk must also be non-empty
    and 8-connected (so the rasterized local area is a single component), and
    none may be blocked, i.e. touch a placed source's disk; an accepted disk
    is then blocked. Only a disk that a building cuts is labeled: the row
    runs of a whole disk, border-clipped or not, are nested about one
    column, so a non-empty one is a single 4-connected set.
    """
    i, j = free[int(rng.integers(0, len(free)))]
    x = float(j) + float(rng.random())
    y = float(i) + float(rng.random())
    if any(math.hypot(x - s.x, y - s.y) < min_spacing for s in placed):
        return None
    if r is not None:
        disk, whole = _free_disk(x, y, r, layout)
        if len(disk[0]) == 0 or not (whole or _connected(*disk)) \
                or blocked[disk].any():
            return None
        _block(blocked, disk)
    return Source(x, y)


def check_placement(m: int, clear_radius: float | None = None,
                    pair_spacing: float | None = None) -> None:
    """ValueError unless m is in 1..MAX_SOURCES, clear_radius is None or > 0
    and, with a close pair asked for, m >= 2, clear_radius is set and
    pair_spacing is in (0, 2 * clear_radius), so the pair's disks overlap."""
    if not 1 <= m <= MAX_SOURCES:
        raise ValueError(f"source counts must be in 1..{MAX_SOURCES}, not {m}")
    if clear_radius is not None and not clear_radius > 0:
        raise ValueError(f"clear_radius must be > 0 or null, not {clear_radius!r}")
    if pair_spacing is None:
        return
    if m < 2:
        raise ValueError("dense_pair_spacing needs source counts >= 2")
    if clear_radius is None:
        raise ValueError("dense_pair_spacing needs a clear_radius")
    if not 0 < pair_spacing < 2 * clear_radius:
        raise ValueError(f"dense_pair_spacing must be in (0, {2 * clear_radius:g}), "
                         f"not {pair_spacing!r}")


def place_sources(layout: BuildingLayout, m: int, min_spacing: float, seed,
                  clear_radius: float | None = None,
                  pair_spacing: float | None = None) -> list[Source]:
    """Rejection-sample m sources on free cells, pairwise >= min_spacing apart.

    Coordinates are uniform within the chosen free cell. When clear_radius is
    given, each source's rasterized radius disk must additionally be a single
    8-connected free region, pairwise non-adjacent between sources, so the
    local areas stay separable. With pair_spacing given, sources 0 and 1
    instead sit exactly pair_spacing apart with merged disks (_place_dense).
    The placement without a pair makes at most 10000 attempts.
    """
    check_placement(m, clear_radius, pair_spacing)
    free = np.argwhere(layout.cells == 0)
    if len(free) == 0:
        raise PlacementError("layout has no free cells")
    rng = np.random.default_rng(seed)
    if pair_spacing is not None:
        return _place_dense(layout, free, rng, m, min_spacing, clear_radius,
                            pair_spacing)
    placed: list[Source] = []
    blocked = np.zeros(layout.cells.shape, dtype=bool)
    for _ in range(10000):
        source = _draw(layout, free, rng, placed, min_spacing, clear_radius, blocked)
        if source is not None:
            placed.append(source)
            if len(placed) == m:
                return placed
    raise PlacementError(f"placed {len(placed)}/{m} sources after 10000 attempts")


def _place_dense(layout: BuildingLayout, free: np.ndarray, rng, m: int,
                 min_spacing: float, r: float, pair_spacing: float) -> list[Source]:
    """Place m sources where exactly sources 0 and 1 sit pair_spacing apart.

    The close pair is constructed so that its two rasterized radius-r disks
    are fully free, merge into one 8-connected region, and stay clear of all
    other sources' disks; the remaining sources follow the in-distribution
    rules. This reproduces the overlapping-local-area failure regime.
    """
    min_area = expected_disk_area(r)
    for _ in range(20000):
        i, j = free[int(rng.integers(0, len(free)))]
        ax = float(j) + float(rng.random())
        ay = float(i) + float(rng.random())
        theta = float(rng.random()) * 2 * math.pi
        bx = ax + pair_spacing * math.cos(theta)
        by = ay + pair_spacing * math.sin(theta)
        if not layout.is_free(ax, ay) or not layout.is_free(bx, by):
            continue
        disk_a, _ = _free_disk(ax, ay, r, layout)
        disk_b, _ = _free_disk(bx, by, r, layout)
        # fully free unclipped disks keep the merged area comfortably above
        # the single-disk flagging threshold
        if len(disk_a[0]) < min_area or len(disk_b[0]) < min_area:
            continue
        union = tuple(np.concatenate(axis) for axis in zip(disk_a, disk_b))
        if not _connected(*union):
            continue
        placed = [Source(ax, ay), Source(bx, by)]
        blocked = np.zeros(layout.cells.shape, dtype=bool)
        _block(blocked, union)
        # the other sources get 2000 draws each; one that runs out redraws the pair
        for _ in range(m - 2):
            for _ in range(2000):
                source = _draw(layout, free, rng, placed, min_spacing, r, blocked)
                if source is not None:
                    placed.append(source)
                    break
            else:
                break
        else:
            return placed
    raise PlacementError("no valid dense pair after 20000 attempts")
