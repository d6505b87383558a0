"""Sub-pixel coordinate estimation for each component of a local radio map.

An estimator takes a map's value grid, a label grid (0 = background, each
of labels 1..n one separated component) and n, and returns n points (x, y)
in meters, the k-th for label k. ESTIMATORS registers them by name so
pipelines and the CLI can select one; it holds one non-learned entry, the
intensity-weighted centroid (the expected position a numerical coordinate
regression reads off a heatmap), and is where a learned regressor would plug
in. Externally computed coordinates bypass it entirely.
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


def center_of_mass(values, labels, n: int) -> list[tuple[float, float]]:
    """Intensity-weighted centroid of the pixels of each label 1..n.

    On integer maps every weighted sum is exact in float64, so the centroids
    do not depend on the order in which the pixels are summed.
    """
    ii, jj = np.nonzero(labels)
    ids = labels[ii, jj]
    weights = _grid(values)[ii, jj].astype(np.float64)
    total = np.bincount(ids, weights, n + 1)[1:]
    if (total == 0).any():
        raise EmptyMapError("a label has no nonzero pixels")
    x = np.bincount(ids, weights * (jj + 0.5), n + 1)[1:] / total
    y = np.bincount(ids, weights * (ii + 0.5), n + 1)[1:] / total
    return list(zip(x.tolist(), y.tolist()))


ESTIMATORS = {"com": center_of_mass}


def localize_all(result: SeparationResult, estimator: str) -> PredictionSet:
    """Run the named ESTIMATORS entry over every separated component, merged
    ones included.

    Merged components still contribute one estimate each; their flag rides
    along so reports can attribute the resulting miss.
    """
    labeling = result.labeling
    n = len(labeling.components)
    return PredictionSet(points=ESTIMATORS[estimator](result.values, labeling.labels, n),
                         component_ids=[comp.id for comp in labeling.components],
                         flags=list(result.merged_flags))
