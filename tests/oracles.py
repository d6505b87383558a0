"""Independent reference implementations used only to check the package.

Each oracle deliberately takes a different algorithmic route than the code
under test: flood fill instead of labeling row runs, a test of every grid
cell instead of a clipped bounding box, segment clipping per cell and a
traversal of every cell a segment crosses instead of clipping per
rectangle of a cover of the buildings, factorial enumeration instead of the
Hungarian solver, the primal kriging system instead of the dual one. The
exceptions are `kriging_predict_hypot` and `idw_predict_hypot`, the
evaluation from `np.hypot` distances in chunks of 4096 queries that the
package's squared-distance blocks replace, `kriging_matrix_hypot`, the
variogram of `np.hypot` distances that the package's in-place build from
squared distances replaces, `bfs_path_loop`, the Python-loop
breadth-first search whose paths the package's level-synchronous numpy
search must repeat cell for cell, `samples_to_csv_lines`, the f-string
per line whose bytes the package's one %-format over every row must repeat,
and `center_of_mass_per_map`, a masked full-grid copy of the map per
component whose centroids the package's weighted bincounts over one label
grid must repeat bit for bit.

The augmentations at the end (`AUGMENTATIONS`, `augment_grid`,
`augment_points`) are no oracle: they are the flips and quarter rotations
that A9 and the equivariance tests apply to grids and to coordinates alike.
"""

import itertools
import math

import numpy as np

from rssloc.sampling import RouteError


def flood_fill_partition(binary, connectivity=8):
    """Partition of the foreground into components via BFS flood fill.

    Returns a set of frozensets of (i, j) pixels, which is label-free and
    therefore comparable across implementations up to relabeling.
    """
    fg = np.asarray(binary) != 0
    h, w = fg.shape
    if connectivity == 8:
        neigh = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        neigh = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    seen = np.zeros_like(fg, dtype=bool)
    parts = set()
    for si in range(h):
        for sj in range(w):
            if not fg[si, sj] or seen[si, sj]:
                continue
            comp = []
            stack = [(si, sj)]
            seen[si, sj] = True
            while stack:
                i, j = stack.pop()
                comp.append((i, j))
                for di, dj in neigh:
                    ni, nj = i + di, j + dj
                    if 0 <= ni < h and 0 <= nj < w and fg[ni, nj] and not seen[ni, nj]:
                        seen[ni, nj] = True
                        stack.append((ni, nj))
            parts.add(frozenset(comp))
    return parts


def labeling_partition(labels):
    """The same set-of-pixel-sets view for a label grid."""
    labels = np.asarray(labels)
    parts = set()
    for lab in np.unique(labels):
        if lab == 0:
            continue
        ii, jj = np.nonzero(labels == lab)
        parts.add(frozenset(zip(ii.tolist(), jj.tolist())))
    return parts


def center_of_mass_per_map(values, labels, n):
    """The (x, y) centroid of each label 1..n, each from its own copy of the
    map zeroed outside the label: the weighted sums of its nonzero pixels'
    cell-centre coordinates over their weight."""
    values = np.asarray(values)
    points = []
    for k in range(1, n + 1):
        single = np.where(labels == k, values, 0).astype(values.dtype)
        ii, jj = np.nonzero(single)
        weights = single[ii, jj].astype(np.float64)
        total = weights.sum()
        points.append((float((weights * (jj + 0.5)).sum() / total),
                       float((weights * (ii + 0.5)).sum() / total)))
    return points


def disk_cells_every_cell(x, y, r, shape):
    """(row, col) of every grid cell whose center lies within r of (x, y),
    testing each cell of the grid in row-major order."""
    h, w = shape
    return [(i, j) for i in range(h) for j in range(w)
            if (j + 0.5 - x) ** 2 + (i + 0.5 - y) ** 2 <= r * r]


def proxy_local_map_disk_cells(vals, delta_db, r):
    """proxy_local_map's kept-pixel mask, each peak's disk from
    scenario.disk_cells."""
    from rssloc.scenario import disk_cells
    h, w = vals.shape
    work = vals.copy()
    keep = np.zeros((h, w), dtype=bool)
    floor = vals.max() - delta_db
    for _ in range(64):
        pi, pj = np.unravel_index(int(np.argmax(work)), (h, w))
        peak = work[pi, pj]
        if not np.isfinite(peak) or peak < floor:
            break
        disk = disk_cells(pj + 0.5, pi + 0.5, 3.0 * r, (h, w))
        keep[disk] |= vals[disk] >= peak - delta_db
        work[disk] = -np.inf
    return keep


def clip_building_length(a, b, cells):
    """Meters of a->b inside building cells by Liang-Barsky clipping per cell."""
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    seg_len = math.hypot(dx, dy)
    total = 0.0
    cells = np.asarray(cells)
    for i, j in zip(*np.nonzero(cells)):
        t0, t1 = 0.0, 1.0
        ok = True
        for p, q0, q1 in ((dx, j - ax, j + 1 - ax), (dy, i - ay, i + 1 - ay)):
            if p == 0:
                if q0 > 0 or q1 < 0:
                    ok = False
                    break
            else:
                ta, tb = q0 / p, q1 / p
                if ta > tb:
                    ta, tb = tb, ta
                t0, t1 = max(t0, ta), min(t1, tb)
                if t0 >= t1:
                    ok = False
                    break
        if ok and t1 > t0:
            total += (t1 - t0) * seg_len
    return total


def traverse_all_cells(start, ends, cells):
    """Meters of building interior crossed by each segment start->ends[k],
    by a traversal of every cell it crosses.

    Each segment is split where it crosses a grid line of either axis, and
    each piece is charged to the cell reached by counting the crossings
    before it from the start's cell, never by rounding a point on the
    segment: a point an ulp below a row line can round onto it. Coordinate
    q lies in cell floor(q), so a segment moving up crosses the lines in
    (a, b] and one moving down those in (b, a]. Lookups clip to the grid.
    Vectorized over all segments at once.
    """
    a = np.asarray(start, dtype=np.float64).reshape(2)
    b = np.atleast_2d(np.asarray(ends, dtype=np.float64))
    n = b.shape[0]
    h, w = cells.shape
    seg_len = np.hypot(b[:, 0] - a[0], b[:, 1] - a[1])

    # one entry per crossing, plus one at t = 0 per segment for its first piece
    segs, ts, steps = [np.arange(n)], [np.zeros(n)], [np.zeros((n, 2), np.int64)]
    for axis in (0, 1):
        fa, fb = np.floor(a[axis]), np.floor(b[:, axis])
        count = np.abs(fb - fa).astype(np.int64)
        seg = np.repeat(np.arange(n), count)
        k = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
        up = fb[seg] > fa
        lines = np.where(up, fa + 1 + k, fa - k)
        step = np.zeros((len(seg), 2), np.int64)
        step[:, axis] = np.where(up, 1, -1)
        segs.append(seg)
        ts.append(np.clip((lines - a[axis]) / (b[seg, axis] - a[axis]), 0.0, 1.0))
        steps.append(step)
    seg, t, step = np.concatenate(segs), np.concatenate(ts), np.concatenate(steps)
    # crossings at equal t bound pieces of no length, so their order is free
    order = np.lexsort((t, seg))
    seg, t, step = seg[order], t[order], step[order]

    # each entry starts a piece that ends at the next entry of its segment
    last = np.append(seg[1:] != seg[:-1], True)
    t_end = np.append(t[1:], 1.0)
    t_end[last] = 1.0
    moved = np.cumsum(step, axis=0)
    first = np.flatnonzero(np.insert(last[:-1], 0, True))
    moved -= (moved[first] - step[first])[seg]
    col = np.clip(np.floor(a[0]).astype(np.int64) + moved[:, 0], 0, w - 1)
    row = np.clip(np.floor(a[1]).astype(np.int64) + moved[:, 1], 0, h - 1)
    lengths = cells[row, col] * (t_end - t) * seg_len[seg]
    return np.bincount(seg, weights=lengths, minlength=n)


def sample_along_loop(route, grid, interval_s, speed=1.0):
    """Noise-free route sampling one arc at a time: the per-sample loop that
    rssloc.sampling.sample_along vectorizes. Returns every drawn position and
    its reading, repeats included."""
    pts = route.waypoints
    cum = route.cumulative_lengths()
    step = interval_s * speed
    count = int(math.floor((cum[-1] + 1e-9) / step)) + 1
    positions = np.empty((count, 2))
    values = np.empty(count)
    for k in range(count):
        arc = k * step
        if arc <= 0:
            x, y = pts[0]
        elif arc >= cum[-1]:
            x, y = pts[-1]
        else:
            i = int(np.searchsorted(cum, arc, side="right")) - 1
            frac = (arc - cum[i]) / (cum[i + 1] - cum[i])
            x0, y0 = pts[i]
            x1, y1 = pts[i + 1]
            x, y = x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)
        positions[k] = (x, y)
        values[k] = grid[int(math.floor(y)), int(math.floor(x))]
    return positions, values


def bfs_path_loop(free, start, goal):
    """rssloc.sampling._bfs_path as a Python breadth-first search with a dict
    entry per reached cell, neighbours in row-major order, stopping at goal."""
    if start == goal:
        return [start]
    h, w = free.shape
    prev = {start: None}
    frontier = [start]
    neigh = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
    while frontier:
        nxt = []
        for i, j in frontier:
            for di, dj in neigh:
                ni, nj = i + di, j + dj
                if 0 <= ni < h and 0 <= nj < w and free[ni, nj] and (ni, nj) not in prev:
                    prev[(ni, nj)] = (i, j)
                    if (ni, nj) == goal:
                        path = [(ni, nj)]
                        while path[-1] != start:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append((ni, nj))
        frontier = nxt
    raise RouteError(f"no free path from {start} to {goal}")


def first_occurrences_loop(positions):
    """rssloc.sampling.first_occurrences through a dict keyed by each row's
    (x, y) floats, which holds 0.0 and -0.0 as one key: the index of each
    key's first row, in order."""
    seen = {}
    for k, (x, y) in enumerate(positions):
        seen.setdefault((float(x), float(y)), k)
    return np.asarray(list(seen.values()), dtype=np.intp)


def samples_to_csv_lines(sample_set):
    """rssloc.dataset_io.samples_to_csv with one f-string per line."""
    lines = ["x_m,y_m,rss_dbm"]
    for (x, y), v in zip(sample_set.positions.tolist(), sample_set.values.tolist()):
        lines.append(f"{x:.6f},{y:.6f},{v:.6f}")
    return "\n".join(lines) + "\n"


def _hypot_chunks(positions, query, chunk=4096):
    """(lo, d): distances from query[lo:lo + chunk] to every sample."""
    query = np.atleast_2d(query)
    for lo in range(0, len(query), chunk):
        q = query[lo:lo + chunk]
        yield lo, np.hypot(q[:, None, 0] - positions[None, :, 0],
                           q[:, None, 1] - positions[None, :, 1])


# the one kriging model the package uses: sill in dB^2, range in m
SILL = 25.0
RANGE_M = 30.0


def exponential_variogram(d):
    """gamma(d) = SILL * (1 - exp(-3 d / RANGE_M)), with gamma(0) = 0."""
    d = np.asarray(d, dtype=np.float64)
    return np.where(d <= 0.0, 0.0, SILL * (1.0 - np.exp(-3.0 * d / RANGE_M)))


def kriging_matrix_hypot(pos):
    """The bordered ordinary-kriging matrix [[gamma(d_ij), 1], [1, 0]] from
    np.hypot distances."""
    j = len(pos)
    k = np.ones((j + 1, j + 1))
    k[:j, :j] = exponential_variogram(np.hypot(pos[:, None, 0] - pos[None, :, 0],
                                               pos[:, None, 1] - pos[None, :, 1]))
    k[j, j] = 0.0
    return k


def kriging_predict_hypot(positions, values, query):
    """rssloc.reconstruct.kriging_predict as the variogram of hypot distances:
    one dual solve, then variogram(d) @ w + mu chunk by chunk."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    rhs = np.append(np.asarray(values, dtype=np.float64), 0.0)
    alpha = np.linalg.solve(kriging_matrix_hypot(pos), rhs)
    out = np.empty(len(np.atleast_2d(query)))
    for lo, d in _hypot_chunks(pos, query):
        out[lo:lo + len(d)] = exponential_variogram(d) @ alpha[:-1] + alpha[-1]
    return out


def idw_predict_hypot(positions, values, query):
    """rssloc.reconstruct.idw_predict as weights d ** -2 of hypot
    distances, summed elementwise; a query within 1e-12 of a sample takes its
    value."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    values = np.asarray(values, dtype=np.float64)
    out = np.empty(len(np.atleast_2d(query)))
    for lo, d in _hypot_chunks(pos, query):
        exact = d < 1e-12
        with np.errstate(divide="ignore"):
            wgt = d ** -2.0
        wgt[exact] = 0.0
        with np.errstate(invalid="ignore"):
            block = (wgt * values[None, :]).sum(axis=1) / wgt.sum(axis=1)
        hit_q, hit_s = np.nonzero(exact)
        block[hit_q] = values[hit_s]
        out[lo:lo + len(d)] = block
    return out


def kriging_weights(positions, query_point):
    """Ordinary-kriging weights and Lagrange multiplier for one query point,
    from the primal system that rssloc.reconstruct.kriging_predict solves in
    dual form."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 2)
    k = kriging_matrix_hypot(pos)
    rhs = np.append(exponential_variogram(np.hypot(pos[:, 0] - query_point[0],
                                                   pos[:, 1] - query_point[1])), 1.0)
    sol = np.linalg.solve(k, rhs)
    return sol[:-1], float(sol[-1])


def brute_force_assignment_cost(pred, true, cutoff=math.inf):
    """Minimum sum of min(cutoff, d)^2 over all size-min(|P|,|T|) matchings."""
    n_pred, n_true = len(pred), len(true)
    m = min(n_pred, n_true)
    if m == 0:
        return 0.0
    best = math.inf
    idx_small, idx_large, small_is_pred = (
        (range(n_pred), range(n_true), True) if n_pred <= n_true
        else (range(n_true), range(n_pred), False))
    for perm in itertools.permutations(idx_large, m):
        cost = 0.0
        for a, b in zip(idx_small, perm):
            i, j = (a, b) if small_is_pred else (b, a)
            d = math.hypot(pred[i][0] - true[j][0], pred[i][1] - true[j][1])
            cost += min(cutoff, d) ** 2
        best = min(best, cost)
    return best


def brute_force_ospa(pred, true, g):
    """OSPA from the factorial enumeration of matchings."""
    n_pred, n_true = len(pred), len(true)
    if n_pred == 0 and n_true == 0:
        return 0.0
    if n_pred == 0 or n_true == 0:
        return float(g)
    n, m = max(n_pred, n_true), min(n_pred, n_true)
    matched = brute_force_assignment_cost(pred, true, cutoff=g)
    return math.sqrt((matched + g * g * (n - m)) / n)


# augmentations of the equivariance tests

def _rotation(k: int):
    def rotate(grid):
        if grid.shape[0] != grid.shape[1]:
            raise ValueError("rotations need a square grid")
        return np.rot90(grid, k)
    return rotate


# name -> (grid transform, (x, y, width, height) -> transformed (x, y))
_AUGMENTATIONS = {
    "identity": (lambda grid: grid, lambda x, y, w, h: (x, y)),
    "flip_h": (np.fliplr, lambda x, y, w, h: (w - x, y)),
    "flip_v": (np.flipud, lambda x, y, w, h: (x, h - y)),
    "rot90": (_rotation(1), lambda x, y, w, h: (y, w - x)),
    "rot180": (_rotation(2), lambda x, y, w, h: (w - x, h - y)),
    "rot270": (_rotation(3), lambda x, y, w, h: (h - y, x)),
}
AUGMENTATIONS = tuple(_AUGMENTATIONS)


def _augmentation(aug: str):
    if aug not in _AUGMENTATIONS:
        raise ValueError(f"unknown augmentation {aug!r}")
    return _AUGMENTATIONS[aug]


def augment_grid(grid: np.ndarray, aug: str) -> np.ndarray:
    return _augmentation(aug)[0](grid).copy()


def augment_points(points, aug: str, width: int, height: int):
    """Transform continuous (x, y) coordinates consistently with augment_grid."""
    move = _augmentation(aug)[1]
    return [move(x, y, width, height) for x, y in points]
