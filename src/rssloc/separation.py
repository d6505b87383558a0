"""Multi-source separation on local radio maps.

Binarize the 8-bit map at a fixed threshold, label the foreground's
connected components (scenario.label_by_bbox, which labels row runs), cut
one single-source map per component, and flag components whose area says
two local areas merged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import RadioMap, _grid
from .scenario import expected_disk_area, label_by_bbox

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
    single_source_maps: list[RadioMap]
    labeling: Labeling
    merged_flags: list[bool]


def binarize(bitmap, gamma: int = DEFAULT_GAMMA) -> RadioMap:
    """255 where the pixel exceeds gamma, 0 otherwise (gamma itself maps to 0)."""
    vals = _grid(bitmap)
    out = np.where(vals > gamma, 255, 0).astype(np.uint8)
    return RadioMap(out)


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


def extract_single_source_maps(i_ms, labeling: Labeling) -> list[RadioMap]:
    """Mask the multi-source map down to one map per connected component."""
    vals = _grid(i_ms)
    return [RadioMap(np.where(labeling.labels == comp.id, vals, 0).astype(vals.dtype))
            for comp in labeling.components]


def flag_merged(labeling: Labeling, r: float) -> list[bool]:
    """Flag components whose area exceeds AREA_FACTOR times a single local area."""
    if r <= 0:
        raise ValueError("r must be positive")
    threshold = AREA_FACTOR * expected_disk_area(r)
    return [comp.area > threshold for comp in labeling.components]


def separate_sources(i_ms, gamma: int = DEFAULT_GAMMA,
                     connectivity: int = DEFAULT_CONNECTIVITY, *,
                     r: float) -> SeparationResult:
    """Full separation pass: binarize, label, extract, flag merged components."""
    labeling = connected_components(binarize(i_ms, gamma), connectivity)
    return SeparationResult(single_source_maps=extract_single_source_maps(i_ms, labeling),
                            labeling=labeling,
                            merged_flags=flag_merged(labeling, r))
