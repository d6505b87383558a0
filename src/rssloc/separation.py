"""Multi-source separation on local radio maps.

Label the connected components of the pixels above a fixed threshold
(scenario.label_by_bbox, which labels row runs) and flag components whose
area says two local areas merged. The result keeps the input grid and the
one label grid; each label is a single-source task for localize.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .propagation import _grid
from .scenario import _check, expected_disk_area, label_by_bbox

DEFAULT_GAMMA = 127
DEFAULT_CONNECTIVITY = 8
AREA_FACTOR = 1.6


@dataclass
class Component:
    id: int
    area: int
    bbox: tuple[int, int, int, int]  # top, left, bottom, right (inclusive)


@dataclass
class Labeling:
    """Label grid (0 = background) plus per-component stats, ordered by bbox."""

    labels: np.ndarray
    components: list[Component]


@dataclass
class SeparationResult:
    values: np.ndarray    # the input grid, not a copy
    labeling: Labeling
    merged_flags: list[bool]


def connected_components(binary, connectivity: int = DEFAULT_CONNECTIVITY) -> Labeling:
    """Label foreground regions; any nonzero pixel counts as foreground.

    Components are renumbered 1..n ordered by (top, left) of their bounding
    boxes so downstream output is stable regardless of scan order; ties keep
    scan order.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    vals = _grid(binary)
    labels, boxes = label_by_bbox(vals != 0, connectivity)
    area = np.bincount(labels.ravel())
    components = [Component(id=k, area=int(area[k]),
                            bbox=(rows.start, cols.start, rows.stop - 1, cols.stop - 1))
                  for k, (rows, cols) in enumerate(boxes, 1)]
    return Labeling(labels=labels, components=components)


def flag_merged(labeling: Labeling, r: float) -> list[bool]:
    """Flag components whose area exceeds AREA_FACTOR times a single local area."""
    _check("r", r, numbers.Real, "positive", lambda r: r > 0)
    threshold = AREA_FACTOR * expected_disk_area(r)
    return [comp.area > threshold for comp in labeling.components]


# perfbench/tracer.py reads the i_ms and gamma arguments by name, and the
# result's labeling.components and merged_flags
def separate_sources(i_ms, gamma: int = DEFAULT_GAMMA,
                     connectivity: int = DEFAULT_CONNECTIVITY, *,
                     r: float) -> SeparationResult:
    """Full separation pass: label the pixels above gamma (gamma itself is
    background), flag merged components."""
    values = _grid(i_ms)
    labeling = connected_components(values > gamma, connectivity)
    return SeparationResult(values, labeling, flag_merged(labeling, r))
