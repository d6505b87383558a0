import math

import numpy as np
import pytest

from rssloc import (EmptyMapError, ESTIMATORS, center_of_mass,
                    ground_truth_local, localize_all, separate_sources)

from conftest import generate_scenario, make_flat_scenario
from oracles import augment_grid, augment_points


def disk_bitmap(ci=10, cj=10, size=24, value=230):
    grid = np.zeros((size, size), dtype=np.uint8)
    for di in range(-2, 3):
        for dj in range(-2, 3):
            if di * di + dj * dj <= 4:
                grid[ci + di, cj + dj] = value
    return grid


def centroid(estimate, grid):
    """The one point an estimator returns for the nonzero pixels as label 1."""
    [point] = estimate(grid, grid != 0, 1)
    return point


class TestCenterOfMass:
    def test_symmetric_disk_exact(self):
        assert centroid(center_of_mass, disk_bitmap()) == (10.5, 10.5)

    def test_two_pixel_arithmetic(self):
        grid = np.zeros((3, 3), dtype=np.uint8)
        grid[1, 0] = 1
        grid[1, 1] = 3
        x, y = centroid(center_of_mass, grid)
        assert x == pytest.approx(1.25)
        assert y == pytest.approx(1.5)

    def test_all_zero_is_error(self):
        with pytest.raises(EmptyMapError):
            centroid(center_of_mass, np.zeros((5, 5), dtype=np.uint8))

    def test_zero_weight_label_is_error(self):
        grid = disk_bitmap()
        labels = (grid != 0).astype(np.int32)
        labels[0, 0] = 2
        with pytest.raises(EmptyMapError):
            center_of_mass(grid, labels, 2)

    def test_inside_convex_hull(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            grid = (rng.random((16, 16)) < 0.2) * \
                rng.integers(1, 256, (16, 16)).astype(np.uint8)
            if not grid.any():
                continue
            x, y = centroid(center_of_mass, grid)
            ii, jj = np.nonzero(grid)
            assert jj.min() + 0.5 - 1e-9 <= x <= jj.max() + 0.5 + 1e-9
            assert ii.min() + 0.5 - 1e-9 <= y <= ii.max() + 0.5 + 1e-9

    def test_oracle_map_worst_case_error(self, params):
        # sweep sub-pixel source offsets on a flat world; frozen worst case
        # from an independent sweep is ~0.245 m, bounded by 1.0 m
        worst = 0.0
        for iu in range(7):
            for iv in range(7):
                u, v = (iu + 0.5) / 7, (iv + 0.5) / 7
                sc = make_flat_scenario([(30 + u, 30 + v)])
                local = ground_truth_local(sc, params, 2.0)
                x, y = centroid(center_of_mass, local.values)
                worst = max(worst, math.hypot(x - 30 - u, y - 30 - v))
        assert worst <= 1.0
        assert worst <= 0.26  # frozen from the dense sweep


class TestLocalizeAll:
    def test_three_components_three_predictions(self, params):
        sc = make_flat_scenario([(10.5, 10.5), (30.5, 30.5), (50.5, 10.5)])
        result = separate_sources(ground_truth_local(sc, params, 2.0), r=2.0)
        preds = localize_all(result, "com")
        assert len(preds) == 3
        assert preds.component_ids == [1, 2, 3]

    def test_zero_components_empty_predictions(self):
        result = separate_sources(np.zeros((20, 20), dtype=np.uint8), r=2.0)
        preds = localize_all(result, "com")
        assert len(preds) == 0

    def test_merged_flag_carried(self, params):
        sc = generate_scenario(200, 200, 5, 3, seed=777, dense_pair_spacing=3.0)
        result = separate_sources(ground_truth_local(sc, params, 2.0), r=2.0)
        preds = localize_all(result, "com")
        assert len(preds) == 2
        assert sum(preds.flags) == 1

    def test_registry_names(self):
        assert set(ESTIMATORS) == {"com"}


class TestEquivariance:
    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    def test_translation(self, name):
        est = ESTIMATORS[name]
        grid = disk_bitmap(ci=8, cj=6, size=28)
        grid[8, 6] = 255
        base = centroid(est, grid)
        shifted = np.zeros_like(grid)
        shifted[3:, 5:] = grid[:-3, :-5]
        x, y = centroid(est, shifted)
        assert x == pytest.approx(base[0] + 5, abs=1e-9)
        assert y == pytest.approx(base[1] + 3, abs=1e-9)

    @pytest.mark.parametrize("name", sorted(ESTIMATORS))
    @pytest.mark.parametrize("aug", ["flip_h", "flip_v", "rot90", "rot180", "rot270"])
    def test_dihedral(self, name, aug):
        rng = np.random.default_rng(13)
        est = ESTIMATORS[name]
        grid = np.zeros((20, 20), dtype=np.uint8)
        grid[9, 7] = 255
        for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1), (1, 1), (-1, -1)):
            grid[9 + di, 7 + dj] = int(rng.integers(100, 250))
        transformed = augment_grid(grid, aug)
        expected = augment_points([centroid(est, grid)], aug, 20, 20)[0]
        got = centroid(est, transformed)
        assert got[0] == pytest.approx(expected[0], abs=1e-9)
        assert got[1] == pytest.approx(expected[1], abs=1e-9)
