"""Independent reference for what `rssloc pipeline` must output per row.

Written with numpy and scipy only, never importing rssloc, from rssloc's
documented defaults: ordinary kriging with the exponential variogram (nugget
0, sill 25 dB^2, range 30 m) or IDW with power 2, building cells at -110 dBm,
the iterative peak-threshold proxy (delta 9 dB, r 2 m, at most 64 peaks),
8-bit encoding over [-110, 0] dBm, binarization above 127, 8-connected
components ordered by the top-left of their bounding box, intensity-weighted
centre of mass, merged flag above 1.6 disk areas, and the count-based FAR and
MDR with optimally matched mLE and OSPA (cutoff 20 m).

The benchmark computes it for every row of a run's inputs before timing, and
checks.py compares every row of every repetition with it, so a change that
alters the predictions or their scores fails the run even when it repeats
exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import ndimage
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

SILL_DB2, RANGE_M = 25.0, 30.0
IDW_POWER = 2.0
BUILDING_FILL_DBM = -110.0
P_MIN_DBM, P_MAX_DBM = -110.0, 0.0
DELTA_DB = 9.0
RADIUS = 2.0
MAX_PEAKS = 64
GAMMA = 127
AREA_FACTOR = 1.6
OSPA_CUTOFF = 20.0

# What may differ between two correct implementations: float rounding, and
# the six decimals of the predictions CSV.
POSITION_TOL_M = 1e-4
SCORE_TOL = 1e-6


def read_samples(text: str) -> tuple[np.ndarray, np.ndarray]:
    table = np.array([[float(v) for v in line.split(",")]
                      for line in text.strip().splitlines()[1:]]).reshape(-1, 3)
    return table[:, :2], table[:, 2]


def _variogram(d: np.ndarray) -> np.ndarray:
    return np.where(d > 0.0, SILL_DB2 * (1.0 - np.exp(-3.0 * d / RANGE_M)), 0.0)


def kriging(positions, values, query) -> np.ndarray:
    j = len(positions)
    system = np.ones((j + 1, j + 1))
    system[:j, :j] = _variogram(cdist(positions, positions))
    system[j, j] = 0.0
    weights = np.linalg.solve(system, np.append(values, 0.0))
    return _variogram(cdist(query, positions)) @ weights[:j] + weights[j]


def idw(positions, values, query) -> np.ndarray:
    d = cdist(query, positions)
    exact = d < 1e-12
    with np.errstate(divide="ignore"):
        w = np.where(exact, 0.0, 1.0 / d ** IDW_POWER)
    out = (w @ values) / w.sum(axis=1)
    hit_q, hit_s = np.nonzero(exact)
    out[hit_q] = values[hit_s]
    return out


RECONSTRUCT = {"kriging": kriging, "idw": idw}


def dense_map(method: str, positions, values, layout: np.ndarray) -> np.ndarray:
    """dBm at every cell centre of the layout; buildings at the fill level."""
    h, w = layout.shape
    ii, jj = np.indices((h, w))
    centres = np.column_stack([jj.ravel() + 0.5, ii.ravel() + 0.5])
    dense = RECONSTRUCT[method](positions, values, centres).reshape(h, w)
    dense[layout != 0] = BUILDING_FILL_DBM
    return dense


def encode(dbm: np.ndarray) -> np.ndarray:
    t = np.clip((dbm - P_MIN_DBM) / (P_MAX_DBM - P_MIN_DBM), 0.0, 1.0)
    return np.floor(255.0 * t + 0.5).astype(np.uint8)


def proxy_bitmap(dense: np.ndarray) -> np.ndarray:
    """Pixels within DELTA_DB of successively weaker peaks, 8-bit encoded."""
    ii, jj = np.indices(dense.shape)
    work = dense.copy()
    keep = np.zeros(dense.shape, bool)
    floor = dense.max() - DELTA_DB
    for _ in range(MAX_PEAKS):
        pi, pj = np.unravel_index(np.argmax(work), work.shape)
        peak = work[pi, pj]
        if not np.isfinite(peak) or peak < floor:
            break
        disk = (ii - pi) ** 2 + (jj - pj) ** 2 <= (3.0 * RADIUS) ** 2
        keep |= disk & (dense >= peak - DELTA_DB)
        work[disk] = -np.inf
    return np.where(keep, encode(dense), 0).astype(np.uint8)


def predictions(bitmap: np.ndarray) -> list[tuple[float, float, bool]]:
    """(x, y, merged flag) per component, in the pipeline's component order."""
    labels, n = ndimage.label(bitmap > GAMMA, structure=np.ones((3, 3)))
    if n == 0:
        return []
    index = np.arange(1, n + 1)
    weights = np.where(labels > 0, bitmap, 0).astype(np.float64)
    centres = ndimage.center_of_mass(weights, labels, index)
    areas = ndimage.sum_labels(np.ones(bitmap.shape), labels, index)
    boxes = ndimage.find_objects(labels)
    reach = range(-int(RADIUS), int(RADIUS) + 1)
    disk = sum(1 for di in reach for dj in reach if di * di + dj * dj <= RADIUS ** 2)
    order = sorted(range(n), key=lambda k: (boxes[k][0].start, boxes[k][1].start))
    return [(centres[k][1] + 0.5, centres[k][0] + 0.5, bool(areas[k] > AREA_FACTOR * disk))
            for k in order]


def scores(pred: list, true: list) -> dict:
    """m, m_hat, far, mdr, mle and ospa of one row."""
    m, m_hat = len(true), len(pred)
    out = {"m": m, "m_hat": m_hat,
           "far": max(0, m_hat - m) / m_hat if m_hat else 0.0,
           "mdr": max(0, m - m_hat) / m, "mle": None, "ospa": OSPA_CUTOFF}
    if m_hat:
        d = cdist(np.asarray(pred, float).reshape(-1, 2), np.asarray(true, float))
        rows, cols = linear_sum_assignment(d ** 2)
        out["mle"] = float(d[rows, cols].mean())
        gated = np.minimum(d, OSPA_CUTOFF) ** 2
        rows, cols = linear_sum_assignment(gated)
        total = gated[rows, cols].sum() + OSPA_CUTOFF ** 2 * abs(m - m_hat)
        out["ospa"] = math.sqrt(total / max(m, m_hat))
    return out


def compare(row: dict, csv: str, expected: tuple[list, dict]) -> str | None:
    """Why a row and its predictions CSV differ from the reference, or None."""
    preds, want = expected
    got = [line.split(",") for line in csv.strip().splitlines()[1:]]
    if len(got) != len(preds):
        return f"{len(got)} predictions, reference finds {len(preds)}"
    for k, ((cid, x, y, flag), (ex, ey, eflag)) in enumerate(zip(got, preds), 1):
        if (int(cid) != k or bool(int(flag)) != eflag
                or abs(float(x) - ex) > POSITION_TOL_M
                or abs(float(y) - ey) > POSITION_TOL_M):
            return (f"prediction {k}: {cid},{x},{y},{flag}; reference "
                    f"{k},{ex:.6f},{ey:.6f},{int(eflag)}")
    for key, value in want.items():
        if (value is None) != (row[key] is None) or (
                value is not None and abs(row[key] - value) > SCORE_TOL):
            return f"{key} {row[key]}, reference {value}"
    return None
