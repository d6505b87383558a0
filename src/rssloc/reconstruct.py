"""Dense radio-map reconstruction from sparse samples.

The seam where a learned samples-to-map model would plug in is the table of
local-map constructors, pipeline.LOCAL_MAPS; the reconstructions here are
non-learned references behind two of its entries: inverse distance weighting
and ordinary kriging with a fixed exponential variogram.
proxy_local_map turns any dense reconstruction into a local-area bitmap by
iterative peak thresholding.

Both predictors and the kriging matrix evaluate their pairs from squared
distances, in blocks of about _PAIRS_PER_BLOCK pairs held in two reused
buffers, so the working set stays in cache. On the free-cell grid the x
half of each distance comes from a table with one row per grid column, and
the y half from one row per run of cells in a grid row (per-axis tables);
every block has the bytes of the broadcast formula. Kriging's one variogram is
gamma(d) = sill * (1 - exp(-3 d / range)), sill _SILL and range _RANGE_M; it
is solved once in dual form (weights w and mean mu) and folded into the
prediction: sill * sum(w) + mu - sill * (exp(-3 d / range) @ w).
The reconstructors predict only at free cells; building cells take P_MIN_DBM.

Values may stack S rows on one set of positions (the scenarios of a layout
share its route). The kriging matrix, its LU, and each block's distances,
sqrt and exp are then computed once. The rows share one LU, solved
_SOLVE_COLUMNS at a time with zero padding, and each row keeps its own
matrix-vector product per block, so each row's output is the bytes a
one-row call gives. On the README config the dense maps differ from one
solve per row by at most 3e-11 dB; the pipeline's outputs keep their bytes.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .propagation import P_MIN_DBM, RadioMap, encode_bitmap
from .sampling import SampleSet, first_occurrences
from .scenario import BuildingLayout, _check

_PAIRS_PER_BLOCK = 1 << 15
# kriging_predict solves its value rows this many at a time, zero-padded, so
# a row's weights do not depend on how many rows share its matrix
_SOLVE_COLUMNS = 16
# the kriging variogram: sill in dB^2, range in m
_SILL = 25.0
_RANGE_M = 30.0
# proxy_local_map takes at most this many peaks
_MAX_PEAKS = 64


class ReconstructionError(RuntimeError):
    """The interpolation system could not be solved."""


def _squared_distance_blocks(positions: np.ndarray, query: np.ndarray):
    """Yield (lo, d2): d2[i, j] is the squared distance from query[lo + i] to
    positions[j], for blocks of about _PAIRS_PER_BLOCK pairs.

    Where query x values repeat, as on a grid, (x - px)**2 is computed once
    per distinct x, as one row of a table sorted by x, and a run of queries
    that share one y and step through consecutive table rows (the free cells
    of a grid row) takes one (y - py)**2 row and one contiguous add. Other
    queries, such as the kriging matrix's own positions, are each a run of
    their own, computed in their block. Either way each element is the
    dx**2 + dy**2 of the broadcast formula, bit for bit.

    d2 is a view of a buffer that the next block overwrites; the caller may
    change it in place.
    """
    rows = max(1, _PAIRS_PER_BLOCK // len(positions))
    px, py = positions[:, 0], positions[:, 1]
    qx, qy = query[:, 0], query[:, 1]
    xs, col = np.unique(qx, return_inverse=True)
    # a query starts a run unless it continues the previous query's run
    # inside one block; without a table each query is a run of its own
    starts = np.ones(len(query), dtype=bool)
    # a table pays when its rows serve two queries each on average; most
    # sample positions have an x of their own, and a kriging matrix's table
    # would be about J x J next to the matrix
    if 2 * len(xs) <= len(query):
        dx2 = np.subtract(xs[:, None], px)
        np.multiply(dx2, dx2, out=dx2)
        starts[1:] = (qy[1:] != qy[:-1]) | (np.diff(col) != 1)
        starts[::rows] = True
    else:
        dx2 = None
    starts = np.flatnonzero(starts)
    # the first run of each block, then the end; one (y - py)**2 row per run
    firsts = np.searchsorted(starts, np.arange(0, len(query) + rows, rows))
    d2_buf = np.empty((min(rows, len(query)), len(positions)))
    dy_buf = np.empty((np.diff(firsts).max(initial=0), len(positions)))
    for lo, f0, f1 in zip(range(0, len(query), rows), firsts, firsts[1:]):
        hi = min(lo + rows, len(query))
        run = starts[f0:f1]
        d2, dy = d2_buf[:hi - lo], dy_buf[:len(run)]
        np.subtract(qy[run, None], py, out=dy)
        np.multiply(dy, dy, out=dy)
        if dx2 is None:
            np.subtract(qx[lo:hi, None], px, out=d2)
            np.multiply(d2, d2, out=d2)
            d2 += dy
        else:
            ends = [*run[1:].tolist(), hi]
            for a, b, c, dy_row in zip(run.tolist(), ends, col[run].tolist(), dy):
                np.add(dx2[c:c + b - a], dy_row, out=d2[a - lo:b - lo])
        yield lo, d2


def idw_predict(positions: np.ndarray, values: np.ndarray,
                query: np.ndarray) -> np.ndarray:
    """Inverse-distance-weighted (1 / d^2) interpolation; exact at the samples.

    values (J,) give (Q,) predictions, values (S, J) give (S, Q).
    """
    samples = SampleSet(positions, values)
    positions, values = samples.positions, samples.values
    query = np.atleast_2d(np.asarray(query, dtype=np.float64))
    rows = np.atleast_2d(values)
    out = np.empty((len(rows), len(query)))
    for lo, d2 in _squared_distance_blocks(positions, query):
        exact = d2 < 1e-24     # d < 1e-12
        with np.errstate(divide="ignore"):
            d2 **= -1.0
        d2[exact] = 0.0
        total = d2.sum(axis=1)
        hit_q, hit_s = np.nonzero(exact)
        for row, row_out in zip(rows, out):
            with np.errstate(invalid="ignore"):   # rows of exact hits only
                block = (d2 @ row) / total
            block[hit_q] = row[hit_s]
            row_out[lo:lo + len(block)] = block
    return out.reshape(values.shape[:-1] + (len(query),))


def _kriging_matrix(positions: np.ndarray) -> np.ndarray:
    """The bordered ordinary-kriging matrix [[gamma(d_ij), 1], [1, 0]]: gamma
    block by block from _squared_distance_blocks, in the operation order of
    sill * (1 - exp(-3 d / range)); only the diagonal has d = 0."""
    j = len(positions)
    k = np.empty((j + 1, j + 1))
    for lo, d2 in _squared_distance_blocks(positions, positions):
        g = k[lo:lo + len(d2), :j]
        np.sqrt(d2, out=g)
        g *= -3.0
        g /= _RANGE_M
        np.exp(g, out=g)
        np.subtract(1.0, g, out=g)
        g *= _SILL
    np.fill_diagonal(k[:j, :j], 0.0)
    k[:j, j] = 1.0
    k[j, :j] = 1.0
    k[j, j] = 0.0
    return k


def _check_samples(positions: np.ndarray):
    if len(positions) < 2:
        raise ReconstructionError("ordinary kriging needs at least two samples")
    if len(first_occurrences(positions)) < len(positions):
        raise ReconstructionError(
            "duplicate sample positions make the kriging system singular; "
            "merge them upstream")


def kriging_predict(positions: np.ndarray, values: np.ndarray,
                    query: np.ndarray) -> np.ndarray:
    """Ordinary-kriging prediction in dual form: one solve, O(J) per query.

    values (J,) give (Q,) predictions, values (S, J) give (S, Q): one matrix
    and one LU for all rows, solved _SOLVE_COLUMNS rows at a time.
    """
    try:
        samples = SampleSet(positions, values)
    except ValueError as exc:
        raise ReconstructionError(str(exc)) from exc
    positions, values = samples.positions, samples.values
    _check_samples(positions)
    k = _kriging_matrix(positions)
    rows = np.atleast_2d(values)
    alpha = np.empty((len(rows), len(positions) + 1))    # (w, mu) per row
    for lo in range(0, len(rows), _SOLVE_COLUMNS):
        chunk = rows[lo:lo + _SOLVE_COLUMNS]
        rhs = np.zeros((len(positions) + 1, _SOLVE_COLUMNS))
        rhs[:-1, :len(chunk)] = chunk.T
        try:
            alpha[lo:lo + len(chunk)] = np.linalg.solve(k, rhs)[:, :len(chunk)].T
        except np.linalg.LinAlgError as exc:
            raise ReconstructionError(f"kriging system is singular: {exc}") from exc
    del k
    weights = [(a[:-1], _SILL * a[:-1].sum() + a[-1]) for a in alpha]
    scale = -3.0 / _RANGE_M
    query = np.atleast_2d(np.asarray(query, dtype=np.float64))
    out = np.empty((len(weights), len(query)))
    for lo, d2 in _squared_distance_blocks(positions, query):
        np.sqrt(d2, out=d2)
        d2 *= scale
        np.exp(d2, out=d2)     # exp(-3 d / range), the variable part of gamma
        for (w, base), row_out in zip(weights, out):
            row_out[lo:lo + len(d2)] = base - _SILL * (d2 @ w)
    return out.reshape(values.shape[:-1] + (len(query),))


def _free_cell_centers(layout: BuildingLayout) -> np.ndarray:
    ii, jj = np.nonzero(layout.cells == 0)
    return np.column_stack([jj + 0.5, ii + 0.5])


def _as_dense_maps(free_values: np.ndarray, layout: BuildingLayout) -> list[RadioMap]:
    free = layout.cells == 0
    maps = []
    for row in np.atleast_2d(free_values):
        vals = np.full(layout.cells.shape, P_MIN_DBM, dtype=np.float64)
        vals[free] = row
        maps.append(RadioMap(vals))
    return maps


def idw_reconstruct(sample_set: SampleSet, layout: BuildingLayout) -> list[RadioMap]:
    """Dense dBm maps by inverse distance weighting, one per value row."""
    field = idw_predict(sample_set.positions, sample_set.values,
                        _free_cell_centers(layout))
    return _as_dense_maps(field, layout)


def kriging_reconstruct(sample_set: SampleSet, layout: BuildingLayout) -> list[RadioMap]:
    """Dense dBm maps by ordinary kriging, one per value row; raises on a
    singular system."""
    field = kriging_predict(sample_set.positions, sample_set.values,
                            _free_cell_centers(layout))
    return _as_dense_maps(field, layout)


def proxy_local_map(dense: RadioMap, delta_db: float = 9.0, *, r: float) -> RadioMap:
    """Carve a local-area bitmap out of a dense reconstruction.

    Iteratively take the strongest unsuppressed pixel as a peak candidate,
    keep the pixels within 3r of it that lie within delta_db of its value,
    then suppress its 3r disk; stop once remaining peaks fall more than
    delta_db below the map maximum. Kept pixels are bitmap-encoded, the rest
    zeroed. A stand-in for a learned local-map model, not a faithful one.
    """
    if not dense.is_dbm:
        raise ValueError("proxy_local_map expects a dBm map")
    _check("r", r, numbers.Real, "positive", lambda v: v > 0)
    _check("delta_db", delta_db, numbers.Real, ">= 0", lambda v: v >= 0)
    vals = dense.values.astype(np.float64)
    if vals.max() - vals.min() < 1e-12:
        raise ValueError("degenerate (constant) dense map")
    h, w = vals.shape
    work = vals.copy()
    keep = np.zeros((h, w), dtype=bool)
    floor = vals.max() - delta_db
    # a peak is a cell centre, so its 3r disk (the cells disk_cells selects)
    # is one stencil of integer offsets, clipped to the grid at each peak
    radius = 3.0 * r
    n = min(math.floor(radius), max(h, w))
    offsets = np.arange(-n, n + 1)
    stencil = offsets[:, None] ** 2 + offsets ** 2 <= radius * radius
    for _ in range(_MAX_PEAKS):
        flat = int(np.argmax(work))
        pi, pj = flat // w, flat % w
        peak = work[pi, pj]
        if not np.isfinite(peak) or peak < floor:
            break
        i0, j0 = max(pi - n, 0), max(pj - n, 0)
        window = np.s_[i0:pi + n + 1, j0:pj + n + 1]
        disk = stencil[i0 - pi + n:, j0 - pj + n:][:h - i0, :w - j0]
        keep[window] |= disk & (vals[window] >= peak - delta_db)
        work[window][disk] = -np.inf
    bitmap = np.where(keep, encode_bitmap(vals), 0).astype(np.uint8)
    return RadioMap(bitmap)
