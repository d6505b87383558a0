"""Sub-pixel coordinate estimation on single-source local radio maps.

All estimators share one signature: bitmap in, (x, y) meters out. They are
registered by name in ESTIMATORS so pipelines and the CLI can select them,
and externally computed coordinates can bypass them entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import _grid
from .separation import SeparationResult


class EmptyMapError(ValueError):
    """Estimation was asked for on a map with no nonzero pixels."""


@dataclass
class PredictionSet:
    points: list[tuple[float, float]]
    component_ids: list[int]
    flags: list[bool]

    def __len__(self) -> int:
        return len(self.points)


def _peak_index(vals: np.ndarray) -> tuple[int, int]:
    if not vals.any():
        raise EmptyMapError("map has no nonzero pixels")
    flat = int(np.argmax(vals))  # row-major, so ties pick smallest row then column
    return flat // vals.shape[1], flat % vals.shape[1]


def argmax_estimate(single_map) -> tuple[float, float]:
    """Center of the maximum-intensity pixel."""
    i, j = _peak_index(_grid(single_map))
    return (j + 0.5, i + 0.5)


def center_of_mass(single_map) -> tuple[float, float]:
    """Intensity-weighted centroid of the nonzero pixels."""
    vals = _grid(single_map)
    if not vals.any():
        raise EmptyMapError("map has no nonzero pixels")
    ii, jj = np.nonzero(vals)
    weights = vals[ii, jj].astype(np.float64)
    total = weights.sum()
    return (float((weights * (jj + 0.5)).sum() / total),
            float((weights * (ii + 0.5)).sum() / total))


def four_neighborhood_refine(single_map) -> tuple[float, float]:
    """Weighted centroid of the peak pixel and its four in-bounds neighbors."""
    vals = _grid(single_map)
    i, j = _peak_index(vals)
    h, w = vals.shape
    sw = swx = swy = 0.0
    for di, dj in ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)):
        ni, nj = i + di, j + dj
        if 0 <= ni < h and 0 <= nj < w:
            v = float(vals[ni, nj])
            sw += v
            swx += v * (nj + 0.5)
            swy += v * (ni + 0.5)
    return (swx / sw, swy / sw)


ESTIMATORS = {
    "argmax": argmax_estimate,
    "com": center_of_mass,
    "refine4": four_neighborhood_refine,
}


def localize_all(result: SeparationResult, estimator: str) -> PredictionSet:
    """Run the named ESTIMATORS entry over every separated component, merged
    ones included.

    Merged components still contribute one estimate each; their flag rides
    along so reports can attribute the resulting miss.
    """
    estimate = ESTIMATORS[estimator]
    return PredictionSet(points=[estimate(single) for single in result.single_source_maps],
                         component_ids=[comp.id for comp in result.labeling.components],
                         flags=list(result.merged_flags))
