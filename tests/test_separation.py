import numpy as np
import pytest

from rssloc import (connected_components, expected_disk_area, flag_merged,
                    ground_truth_local, separate_sources)

from conftest import generate_scenario
from oracles import flood_fill_partition, labeling_partition


class TestBinarize:
    """separate_sources binarizes at gamma: a pixel is foreground when it
    exceeds gamma."""

    def test_above_threshold(self):
        result = separate_sources(np.array([[128]], dtype=np.uint8), 127, r=2.0)
        assert len(result.labeling.components) == 1
        assert result.labeling.labels[0, 0] == 1

    def test_at_threshold_is_background(self):
        result = separate_sources(np.array([[127]], dtype=np.uint8), 127, r=2.0)
        assert result.labeling.components == []
        assert result.labeling.labels[0, 0] == 0

    def test_all_zero(self):
        result = separate_sources(np.zeros((8, 8), dtype=np.uint8), r=2.0)
        assert result.labeling.components == []
        assert not result.labeling.labels.any()

    def test_idempotent(self):
        # labeling the binarized map again gives the same labels
        rng = np.random.default_rng(1)
        bm = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
        once = separate_sources(bm, r=2.0)
        binary = np.where(bm > 127, 255, 0).astype(np.uint8)
        twice = separate_sources(binary, r=2.0)
        assert np.array_equal(once.labeling.labels, twice.labeling.labels)

    def test_values_are_the_input_grid(self):
        bm = np.zeros((6, 6), dtype=np.uint8)
        bm[2:4, 2:4] = 200
        assert separate_sources(bm, r=2.0).values is bm


class TestConnectedComponents:
    def test_two_disks(self):
        grid = np.zeros((30, 30), dtype=np.uint8)
        for ci, cj in ((8, 8), (20, 20)):
            for di in range(-2, 3):
                for dj in range(-2, 3):
                    if di * di + dj * dj <= 4:
                        grid[ci + di, cj + dj] = 255
        lab = connected_components(grid)
        assert len(lab.components) == 2
        assert [c.area for c in lab.components] == [13, 13]

    def test_diagonal_touch_connectivity(self):
        grid = np.zeros((5, 5), dtype=np.uint8)
        grid[1, 1] = grid[2, 2] = 255
        assert len(connected_components(grid, 8).components) == 1
        assert len(connected_components(grid, 4).components) == 2

    def test_empty_foreground(self):
        lab = connected_components(np.zeros((10, 10), dtype=np.uint8))
        assert lab.components == []
        assert not lab.labels.any()

    def test_foreground_encoding_invariance(self):
        rng = np.random.default_rng(2)
        grid = (rng.random((40, 40)) < 0.4).astype(np.uint8)
        a = connected_components(grid * 255)
        b = connected_components(grid * 7)
        assert np.array_equal(a.labels, b.labels)

    def test_invalid_connectivity(self):
        with pytest.raises(ValueError):
            connected_components(np.zeros((4, 4), dtype=np.uint8), 6)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_flood_fill_oracle(self, connectivity):
        rng = np.random.default_rng(3)
        for _ in range(30):
            grid = (rng.random((32, 32)) < rng.uniform(0.2, 0.7)).astype(np.uint8) * 255
            lab = connected_components(grid, connectivity)
            assert labeling_partition(lab.labels) == \
                flood_fill_partition(grid, connectivity)

    def test_labels_ordered_by_bbox(self):
        grid = np.zeros((20, 20), dtype=np.uint8)
        grid[15:18, 2:5] = 255   # lower-left blob
        grid[2:5, 15:18] = 255   # upper-right blob
        lab = connected_components(grid)
        assert lab.components[0].bbox[0] < lab.components[1].bbox[0]
        assert lab.components[0].id == 1

    def test_bbox_tie_keeps_scan_order(self):
        # a lone pixel and an anti-diagonal both have bbox (top, left) = (0, 0)
        grid = np.zeros((6, 6), dtype=np.uint8)
        grid[0, 0] = 255
        for t in range(6):
            grid[t, 5 - t] = 255
        lab = connected_components(grid, 8)
        assert [(c.id, c.area, c.bbox) for c in lab.components] == \
            [(1, 1, (0, 0, 0, 0)), (2, 6, (0, 0, 5, 5))]
        assert lab.labels[0, 0] == 1
        assert (lab.labels[np.arange(6), 5 - np.arange(6)] == 2).all()
        assert lab.labels.dtype == np.int32


class TestFlagMerged:
    def test_disk_area_count(self):
        assert expected_disk_area(2.0) == 13
        assert expected_disk_area(1.0) == 5

    def test_single_disk_not_flagged(self):
        grid = np.zeros((20, 20), dtype=np.uint8)
        for di in range(-2, 3):
            for dj in range(-2, 3):
                if di * di + dj * dj <= 4:
                    grid[10 + di, 10 + dj] = 255
        labeling = connected_components(grid)
        assert flag_merged(labeling, 2.0) == [False]

    def test_large_component_flagged(self):
        grid = np.zeros((20, 20), dtype=np.uint8)
        grid[5:11, 5:9] = 255  # area 24 > 1.6 * 13
        labeling = connected_components(grid)
        assert flag_merged(labeling, 2.0) == [True]

    def test_close_pair_merges_and_flags(self, params):
        sc = generate_scenario(200, 200, 6, 2, seed=404, dense_pair_spacing=3.0)
        local = ground_truth_local(sc, params, 2.0)
        result = separate_sources(local, r=2.0)
        assert len(result.labeling.components) == 1
        assert result.merged_flags == [True]

    def test_rejects_nonpositive_radius(self):
        labeling = connected_components(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ValueError):
            flag_merged(labeling, 0.0)


def test_disjoint_disks_give_exact_count(params):
    # all pairwise spacings > 2r + sqrt(2) guarantee disjoint rasterized disks
    rng = np.random.default_rng(6)
    for k in range(10):
        sc = generate_scenario(200, 200, 5, int(rng.integers(2, 8)), seed=500 + k,
                               min_spacing=6.0, clear_radius=2.0)
        local = ground_truth_local(sc, params, 2.0)
        result = separate_sources(local, r=2.0)
        assert len(result.labeling.components) == len(sc.sources)
