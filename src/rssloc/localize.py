"""Sub-pixel coordinate estimation on single-source local radio maps.

An estimator takes a bitmap and returns (x, y) in meters. ESTIMATORS
registers them by name so pipelines and the CLI can select one; it holds one
non-learned entry, the intensity-weighted centroid (the expected position a
numerical coordinate regression reads off a heatmap), and is where a learned
regressor would plug in. Externally computed coordinates bypass it entirely.
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


ESTIMATORS = {"com": center_of_mass}


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
