import math

import numpy as np
import pytest

from rssloc import (BuildingLayout, PlacementError, Route, SampleSet, Source,
                    Scenario, add_noise, connected_components, flag_merged,
                    generate_layout, ground_truth_local, optimal_assignment,
                    ospa, place_sources, proxy_local_map, rasterize_global,
                    sample_along)
from rssloc.scenario import _connected, disk_cells, expected_disk_area

from conftest import generate_scenario, make_flat_scenario
from oracles import disk_cells_every_cell, flood_fill_partition


def test_empty_world():
    layout = generate_layout(50, 50, 0, seed=1)
    assert layout.cells.sum() == 0


def test_layout_deterministic():
    a = generate_layout(200, 200, 5, seed=7)
    b = generate_layout(200, 200, 5, seed=7)
    assert np.array_equal(a.cells, b.cells)


def test_layout_free_fraction():
    layout = generate_layout(200, 200, 5, seed=7)
    assert layout.free_fraction() >= 0.3


def test_layout_border_margin():
    layout = generate_layout(100, 100, 12, seed=3)
    assert layout.cells[0, :].sum() == 0
    assert layout.cells[-1, :].sum() == 0
    assert layout.cells[:, 0].sum() == 0
    assert layout.cells[:, -1].sum() == 0


def test_layout_rejects_non_binary():
    cells = np.zeros((10, 10), dtype=np.uint8)
    cells[3, 3] = 2
    with pytest.raises(ValueError):
        BuildingLayout(cells)


def test_layout_rejects_tiny():
    with pytest.raises(ValueError):
        BuildingLayout(np.zeros((4, 4), dtype=np.uint8))


def test_place_single_source():
    layout = generate_layout(100, 100, 4, seed=2)
    sources = place_sources(layout, 1, 5.0, seed=3)
    assert len(sources) == 1
    assert layout.is_free(sources[0].x, sources[0].y)


def test_place_seven_pairwise_spacing():
    layout = generate_layout(200, 200, 5, seed=4)
    sources = place_sources(layout, 7, 5.0, seed=5)
    dists = [math.hypot(a.x - b.x, a.y - b.y)
             for k, a in enumerate(sources) for b in sources[:k]]
    assert len(dists) == 21
    assert min(dists) >= 5.0


def test_place_infeasible_layout():
    cells = np.ones((10, 10), dtype=np.uint8)
    cells[4, 4] = 0
    layout = BuildingLayout(cells)
    with pytest.raises(PlacementError):
        place_sources(layout, 2, 5.0, seed=1)


def test_place_deterministic():
    layout = generate_layout(120, 120, 4, seed=8)
    a = place_sources(layout, 5, 5.0, seed=11, clear_radius=2.0)
    b = place_sources(layout, 5, 5.0, seed=11, clear_radius=2.0)
    assert [(s.x, s.y) for s in a] == [(s.x, s.y) for s in b]


def test_source_defaults_match_operating_point():
    s = Source(1.0, 2.0)
    assert s.tx_power_dbm == 24.0
    assert s.gain_dbi == 10.0


def test_scenario_rejects_source_in_building():
    cells = np.zeros((20, 20), dtype=np.uint8)
    cells[5:10, 5:10] = 1
    with pytest.raises(ValueError):
        Scenario(BuildingLayout(cells), [Source(7.2, 7.8)], "bad", 0)


def test_scenario_rejects_too_many_sources():
    layout = BuildingLayout(np.zeros((50, 50), dtype=np.uint8))
    sources = [Source(2.0 * k + 1.0, 25.0) for k in range(17)]
    with pytest.raises(ValueError):
        Scenario(layout, sources, "many", 0)


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
def test_scenario_rejects_bad_seed_by_name(seed):
    layout = BuildingLayout(np.zeros((20, 20), dtype=np.uint8))
    with pytest.raises(ValueError,
                       match=f"^rng_seed must be an integer >= 0, not {seed!r}$"):
        Scenario(layout, [Source(5.5, 5.5)], "s", seed)


def test_rasterization_convention():
    layout = BuildingLayout(np.zeros((10, 10), dtype=np.uint8))
    # point (x, y) -> cell (floor(y), floor(x)); verified through is_free
    cells = np.zeros((10, 10), dtype=np.uint8)
    cells[2, 7] = 1
    layout = BuildingLayout(cells)
    assert not layout.is_free(7.4, 2.9)   # inside cell (2, 7)
    assert layout.is_free(2.9, 7.4)       # cell (7, 2) is free


def test_disk_pixels_count():
    rows, cols = disk_cells(20.5, 20.5, 2.0, (40, 40))
    assert len(rows) == len(cols) == 13


def test_disk_cells_match_every_cell_oracle():
    rng = np.random.default_rng(11)
    for _ in range(400):
        h, w = (int(v) for v in rng.integers(1, 25, size=2))
        # centres up to 8 m outside the grid on every side
        x, y = rng.uniform(-8, w + 8), rng.uniform(-8, h + 8)
        r = rng.uniform(0.3, 6.0)
        rows, cols = disk_cells(x, y, r, (h, w))
        assert list(zip(rows.tolist(), cols.tolist())) == \
            disk_cells_every_cell(x, y, r, (h, w))
    # pixel-centred radii hit the predicate's boundary exactly
    for r in (1.0, 2.0, 5 ** 0.5, 3.0):
        rows, cols = disk_cells(6.5, 6.5, r, (13, 13))
        assert list(zip(rows.tolist(), cols.tolist())) == \
            disk_cells_every_cell(6.5, 6.5, r, (13, 13))


def test_expected_disk_area_counts_disk_cells():
    # radii on and beside the predicate's boundary: sqrt(m) +- 1e-12, integer
    # and half radii, and the floats next to integers
    radii = [math.sqrt(m) + e for m in range(1, 400) for e in (-1e-12, 0.0, 1e-12)]
    radii += [k / 2 for k in range(1, 81)]
    radii += [math.nextafter(k, side) for k in range(1, 41) for side in (0, 100)]
    for r in radii:
        n = math.floor(r)
        cells = disk_cells(n + 0.5, n + 0.5, r, (2 * n + 1, 2 * n + 1))[0]
        assert expected_disk_area(r) == len(cells), r
    assert expected_disk_area(3) == expected_disk_area(3.0) == 29


def test_expected_disk_area_at_large_radius():
    # a 20001 x 20001 grid would take GB; the row count stays inside the
    # Gauss-circle bound: every counted cell lies within r + sqrt(2)/2 of
    # the centre, and every cell within r - sqrt(2)/2 is counted
    r = 1e4
    area = expected_disk_area(r)
    assert math.pi * (r - 0.5 ** 0.5) ** 2 <= area <= math.pi * (r + 0.5 ** 0.5) ** 2


def test_connected_uses_eight_connectivity():
    assert _connected(np.array([3, 4]), np.array([5, 6]))       # diagonal neighbours
    assert not _connected(np.array([3, 5]), np.array([5, 5]))   # a row between
    assert not _connected(np.array([], dtype=int), np.array([], dtype=int))


def test_clear_disks_connected_and_pairwise_apart():
    # one-cell walls split the free part of any radius-2 disk that straddles them
    cells = np.zeros((40, 40), dtype=np.uint8)
    cells[:, 10::10] = 1
    layout = BuildingLayout(cells)
    free = layout.cells == 0
    for seed in range(5):
        sources = place_sources(layout, 10, 0.0, seed, clear_radius=2.0)
        disks = [[c for c in disk_cells_every_cell(s.x, s.y, 2.0, free.shape) if free[c]]
                 for s in sources]
        for disk in disks:
            grid = np.zeros(free.shape, dtype=np.uint8)
            grid[tuple(np.transpose(disk))] = 1
            assert len(flood_fill_partition(grid, 8)) == 1
        # no cell of one disk equals or 8-touches a cell of another
        for k, a in enumerate(disks):
            for b in disks[:k]:
                assert min(max(abs(i - p), abs(j - q)) for i, j in a for p, q in b) > 1


def test_dense_pair_spacing_exact():
    sc = generate_scenario(200, 200, 6, 5, seed=123, dense_pair_spacing=3.0)
    a, b = sc.sources[0], sc.sources[1]
    assert math.hypot(a.x - b.x, a.y - b.y) == pytest.approx(3.0, abs=1e-9)
    others = [math.hypot(p.x - q.x, p.y - q.y)
              for k, p in enumerate(sc.sources) for q in sc.sources[:k]]
    others.remove(min(others))
    assert min(others) >= 5.0


def test_dense_needs_two_sources():
    layout = generate_layout(100, 100, 3, seed=9)
    with pytest.raises(ValueError, match="needs source counts >= 2"):
        place_sources(layout, 1, 5.0, seed=1, clear_radius=2.0, pair_spacing=3.0)


def test_place_sources_rejects_negative_clear_radius():
    # disk_cells squares r, so -1 would act as a 1 m radius
    layout = generate_layout(100, 100, 3, seed=9)
    with pytest.raises(ValueError, match=r"^clear_radius must be > 0 or null, not -1\.0$"):
        place_sources(layout, 1, 5.0, seed=1, clear_radius=-1.0)


@pytest.mark.parametrize("kwargs,message", [
    # a pair 0 m apart would stack two sources on one point
    ({"dense_pair_spacing": 0.0}, r"must be in \(0, 4\), not 0.0"),
    ({"dense_pair_spacing": -2.0}, r"must be in \(0, 4\), not -2.0"),
    ({"dense_pair_spacing": 3.0, "clear_radius": None}, "needs a clear_radius"),
], ids=["zero", "negative", "no-clear-radius"])
def test_generate_scenario_checks_dense_pair(kwargs, message):
    with pytest.raises(ValueError, match=message):
        generate_scenario(100, 100, 3, 3, seed=5, **kwargs)


def test_generate_scenario_deterministic():
    a = generate_scenario(120, 120, 5, 3, seed=99)
    b = generate_scenario(120, 120, 5, 3, seed=99)
    assert np.array_equal(a.layout.cells, b.layout.cells)
    assert [(s.x, s.y) for s in a.sources] == [(s.x, s.y) for s in b.sources]


def _flat_global(params):
    return rasterize_global(make_flat_scenario([(30.5, 30.5)]), params)


ROUTE = Route(waypoints=[(0.5, 5.5), (10.5, 5.5)])


# a NaN fails every comparison, so a check written as "error if value < 0"
# lets it through; each check must name its parameter
@pytest.mark.parametrize("call,message", [
    (lambda params: add_noise(SampleSet(np.array([[1.0, 1.0]]), np.array([-60.0])),
                              math.nan, 0), "sigma must be >= 0"),
    (lambda params: ospa([(1.0, 1.0)], [], math.nan), "g must be positive"),
    (lambda params: optimal_assignment([(1.0, 1.0)], [(2.0, 2.0)], math.nan),
     "cutoff must be positive"),
    (lambda params: sample_along(ROUTE, _flat_global(params), math.nan),
     "interval_s must be positive"),
    (lambda params: sample_along(ROUTE, _flat_global(params), 1.0, math.nan),
     "speed must be positive"),
    (lambda params: ground_truth_local(make_flat_scenario([(30.5, 30.5)]), params,
                                       math.nan), "r must be positive"),
    (lambda params: flag_merged(connected_components(np.zeros((4, 4), np.uint8)),
                                math.nan), "r must be positive"),
    (lambda params: proxy_local_map(_flat_global(params), r=math.inf),
     "r must be positive"),
    (lambda params: proxy_local_map(_flat_global(params), r=True),
     "r must be positive"),
    (lambda params: proxy_local_map(_flat_global(params), math.nan, r=2.0),
     "delta_db must be >= 0"),
    (lambda params: proxy_local_map(_flat_global(params), -1.0, r=2.0),
     "delta_db must be >= 0"),
    (lambda params: proxy_local_map(_flat_global(params), math.inf, r=2.0),
     "delta_db must be >= 0"),
], ids=["add_noise", "ospa", "optimal_assignment", "sample_along-interval_s",
        "sample_along-speed", "ground_truth_local", "flag_merged",
        "proxy_local_map-r-inf", "proxy_local_map-r-True",
        "proxy_local_map-delta_db-nan", "proxy_local_map-delta_db-negative",
        "proxy_local_map-delta_db-inf"])
def test_sign_checks_reject_nan(params, call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call(params)
