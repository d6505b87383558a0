"""Vehicle measurement simulation: perimeter routes around buildings,
arc-length sampling of the global field at configurable time intervals, and
the one measurement-noise model, add_noise.

Routes are canonical and deterministic: the exterior free-cell ring of each
building region is traced clockwise starting at its topmost-leftmost cell,
loops are concatenated in the (top, left) bounding-box order of their
regions, and consecutive loops are joined by a breadth-first shortest free
path. Without buildings the map border is the route.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .propagation import RadioMap
from .scenario import BuildingLayout, GenerationError, _check, dilate, label_by_bbox

# stream tag for add_noise's draws, mixed with the caller's seed
_NOISE_TAG = 0xAD01

# clockwise Moore scan order with the origin at the top-left (y grows down)
_CLOCKWISE = ((0, -1), (-1, -1), (-1, 0), (-1, 1),
              (0, 1), (1, 1), (1, 0), (1, -1))


class RouteError(GenerationError):
    """No valid measurement route exists for the layout."""


@dataclass
class Route:
    """Ordered free-cell centers (meters) the vehicle drives through. Their
    (K, 2) array, arc lengths and sample positions per step are built once,
    read-only, for every scenario of a layout; routes compare by waypoints."""

    waypoints: list[tuple[float, float]]
    _points: np.ndarray = field(init=False, repr=False, compare=False)
    _lengths: np.ndarray = field(init=False, repr=False, compare=False)
    _positions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._points = pts = np.asarray(self.waypoints, dtype=np.float64).reshape(-1, 2)
        steps = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        self._lengths = np.concatenate([[0.0], np.cumsum(steps)])
        pts.flags.writeable = self._lengths.flags.writeable = False

    def cumulative_lengths(self) -> np.ndarray:
        return self._lengths


@dataclass
class SampleSet:
    """Sparse measurements {(S_j, rss_j)}, at least one.

    Positions may repeat here, and kriging rejects repeats (first_occurrences
    finds them); a (J, 2) float64 array is kept as given, not copied, and
    positions of any other shape are a ValueError.

    values may also stack S value rows on the same J positions, one per
    scenario measured along the same route; len() is J either way.
    """

    positions: np.ndarray    # (J, 2) float, (x, y) meters
    values: np.ndarray       # (J,) or (S, J) dBm

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError("sample positions must have shape (J, 2), not "
                             f"{self.positions.shape}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            self.values = self.values.ravel()
        if len(self.positions) != self.values.shape[-1]:
            raise ValueError(f"{len(self.positions)} sample positions but "
                             f"{self.values.shape[-1]} values")
        if len(self.positions) < 1:
            raise ValueError("a sample set needs at least one sample")

    def __len__(self) -> int:
        return len(self.positions)


def _trace_ring(ring: np.ndarray, start: tuple[int, int]) -> list[tuple[int, int]]:
    """Moore-neighbor trace of a ring mask, clockwise, closed back to start."""
    h, w = ring.shape

    def scan(cell, backtrack):
        # directions clockwise, beginning just after the backtrack direction
        di, dj = backtrack[0] - cell[0], backtrack[1] - cell[1]
        k0 = _CLOCKWISE.index((di, dj))
        for step in range(1, 9):
            di, dj = _CLOCKWISE[(k0 + step) % 8]
            ni, nj = cell[0] + di, cell[1] + dj
            if 0 <= ni < h and 0 <= nj < w and ring[ni, nj]:
                prev = _CLOCKWISE[(k0 + step - 1) % 8]
                return (ni, nj), (cell[0] + prev[0], cell[1] + prev[1])
        return None, None

    first_back = (start[0], start[1] - 1)
    loop = [start]
    cell, back = scan(start, first_back)
    if cell is None:
        return [start, start]  # isolated ring cell
    second = cell
    second_back = back
    guard = 8 * int(ring.sum()) + 16
    while guard > 0:
        guard -= 1
        loop.append(cell)
        if cell == start:
            nxt, nback = scan(cell, back)
            if nxt == second and nback == second_back:
                return loop
        cell, back = scan(cell, back)
    raise RouteError("ring trace did not close")


def _bfs_path(free: np.ndarray, start: tuple[int, int],
              goal: tuple[int, int]) -> list[tuple[int, int]]:
    """Breadth-first shortest path from the free cell start to goal over the
    8-neighbour graph of the free cells.

    The search runs level by level over the grid padded by one blocked cell.
    Each level's frontier is kept in queue order and a cell's neighbours are
    taken in row-major order, so a newly reached cell's predecessor is the
    first frontier cell to reach it, as in a queue-based search."""
    if start == goal:
        return [start]
    pad = np.pad(free, 1).ravel()   # a blocked border keeps every neighbour in range
    w = free.shape[1] + 2
    offsets = np.array([di * w + dj for di in (-1, 0, 1) for dj in (-1, 0, 1)
                        if di or dj])
    source = (start[0] + 1) * w + start[1] + 1
    node = (goal[0] + 1) * w + goal[1] + 1
    predecessors = np.full(pad.size, -1)
    first = np.full(pad.size, pad.size * len(offsets))
    pad[source] = False   # pad now marks the free cells not yet reached
    frontier = np.array([source])
    while pad[node] and len(frontier):
        reached = (frontier[:, None] + offsets).ravel()
        at = np.flatnonzero(pad[reached])
        cells = reached[at]
        # keep each newly reached cell at its first place in queue order
        np.minimum.at(first, cells, at)
        keep = first[cells] == at
        predecessors[cells[keep]] = frontier[at[keep] // len(offsets)]
        frontier = cells[keep]
        pad[frontier] = False
    if predecessors[node] < 0:
        raise RouteError(f"no free path from {start} to {goal}")
    path = [node]
    while node != source:
        node = predecessors[node]
        path.append(node)
    return [(int(k // w) - 1, int(k % w) - 1) for k in reversed(path)]


def build_routes(layout: BuildingLayout) -> Route:
    """Canonical measurement route around every reachable building."""
    occ = layout.cells
    free = occ == 0
    if not free.any():
        raise RouteError("layout has no free cells")

    if not occ.any():
        # the one-cell border ring, traced from its top-left cell
        ring = free.copy()
        ring[1:-1, 1:-1] = False
        cells = _trace_ring(ring, (0, 0))
    else:
        # regions in (bbox top, left) order, as components are labeled
        region_labels, regions = label_by_bbox(occ, 8)
        free_labels, _ = label_by_bbox(free, 8)
        border = np.concatenate([free_labels[0, :], free_labels[-1, :],
                                 free_labels[:, 0], free_labels[:, -1]])
        # no np.unique: it loads numpy.ma, about 10 ms a command
        outside = np.isin(free_labels, border[border > 0])
        cells = []
        for rid, (rows, cols) in enumerate(regions, start=1):
            # the ring lies in the region's bounding box grown by one cell
            i0, j0 = max(rows.start - 1, 0), max(cols.start - 1, 0)
            window = (slice(i0, rows.stop + 1), slice(j0, cols.stop + 1))
            ring = dilate(region_labels[window] == rid) & free[window] & outside[window]
            if not ring.any():
                raise RouteError(f"building region {rid} is unreachable")
            start = tuple(int(k) for k in np.argwhere(ring)[0])
            loop = [(i + i0, j + j0) for i, j in _trace_ring(ring, start)]
            if cells:
                bridge = _bfs_path(outside, cells[-1], loop[0])
                cells.extend(bridge[1:])
            cells.extend(loop if not cells or cells[-1] != loop[0] else loop[1:])

    return Route(waypoints=[(j + 0.5, i + 0.5) for i, j in cells])


def first_occurrences(positions) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct (x, y) row;
    0.0 and -0.0 are one coordinate."""
    # a stable sort of the rows as x + iy puts each first occurrence first in
    # its group; np.unique would load numpy.ma, about 10 ms a command
    keys = np.ascontiguousarray(positions, dtype=np.float64).view(np.complex128).ravel()
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = ranked[1:] != ranked[:-1]
    return np.sort(order[new])


def sample_along(route: Route, global_map: RadioMap, interval_s: float,
                 speed: float = 1.0) -> SampleSet:
    """Measure at arc-length multiples of interval_s * speed from the start.

    Each distinct position is read once, in order of first occurrence, as the
    exact field value at its containing cell's center; add_noise perturbs the
    readings. The route keeps each step's positions for later calls.
    """
    _check("interval_s", interval_s, numbers.Real, "positive", lambda v: v > 0)
    _check("speed", speed, numbers.Real, "positive", lambda v: v > 0)
    if not global_map.is_dbm:
        raise ValueError("sampling needs the dBm global map")
    step = interval_s * speed
    positions = route._positions.get(step)
    if positions is None:
        cum = route.cumulative_lengths()
        count = int(math.floor((cum[-1] + 1e-9) / step)) + 1
        arcs = np.arange(count) * step
        pts = route._points
        # arcs past either end of the route clamp to its first or last waypoint
        positions = np.where((arcs <= 0)[:, None], pts[0], pts[-1])
        inside = np.flatnonzero((arcs > 0) & (arcs < cum[-1]))
        arc = arcs[inside]
        k = np.searchsorted(cum, arc, side="right") - 1
        frac = (arc - cum[k]) / (cum[k + 1] - cum[k])
        p0 = pts[k]
        positions[inside] = p0 + frac[:, None] * (pts[k + 1] - p0)
        positions = route._positions[step] = positions[first_occurrences(positions)]
        positions.flags.writeable = False
    cells = np.floor(positions).astype(np.int64)
    values = global_map.values[cells[:, 1], cells[:, 0]].astype(np.float64)
    return SampleSet(positions=positions, values=values)


def add_noise(sample_set: SampleSet, sigma: float, seed: int,
              stream: str = "") -> SampleSet:
    """Independent zero-mean Gaussian perturbation per sample, values only.

    seed is an integer >= 0. A non-empty stream (the pipeline passes scenario
    id and interval) draws from its own stream of the seed.
    """
    _check("seed", seed, numbers.Integral, "an integer >= 0", lambda n: n >= 0)
    _check("sigma", sigma, numbers.Real, ">= 0", lambda s: s >= 0)
    values = sample_set.values.copy()
    if sigma > 0:
        entropy = [int(seed), _NOISE_TAG]
        if stream:
            entropy.append(int.from_bytes(stream.encode(), "little"))
        rng = np.random.default_rng(np.random.SeedSequence(entropy))
        values += rng.normal(0.0, sigma, size=values.shape)
    return SampleSet(positions=sample_set.positions.copy(), values=values)
