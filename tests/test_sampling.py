import math

import numpy as np
import pytest

from rssloc import (BuildingLayout, Route, RouteError, SampleSet, add_noise,
                    build_routes, rasterize_global, sample_along)

from conftest import generate_scenario, make_flat_scenario
from oracles import first_occurrences_loop, sample_along_loop
from rssloc.sampling import first_occurrences


def straight_route(n_cells=101, row=5):
    # open corridor route: n_cells unit steps - 1, integer total length
    waypoints = [(j + 0.5, row + 0.5) for j in range(n_cells)]
    return Route(waypoints=waypoints)


@pytest.fixture
def flat_global(params):
    sc = make_flat_scenario([(30.5, 30.5)], size=120)
    return rasterize_global(sc, params)


class TestRoutes:
    def test_empty_layout_border_loop(self):
        layout = BuildingLayout(np.zeros((200, 200), dtype=np.uint8))
        route = build_routes(layout)
        assert route.cumulative_lengths()[-1] == pytest.approx(796.0)
        # all waypoints on the border ring
        for x, y in route.waypoints:
            i, j = int(y), int(x)
            assert i in (0, 199) or j in (0, 199)
        # the exact sequence on 8 rows by 10 columns: clockwise from the
        # top-left cell and back to it
        small = build_routes(BuildingLayout(np.zeros((8, 10), dtype=np.uint8)))
        cells = ([(0, j) for j in range(10)] + [(i, 9) for i in range(1, 8)]
                 + [(7, j) for j in range(8, -1, -1)]
                 + [(i, 0) for i in range(6, -1, -1)])
        assert len(cells) == 33
        assert small.waypoints == [(j + 0.5, i + 0.5) for i, j in cells]

    def test_rectangle_ring(self):
        cells = np.zeros((30, 30), dtype=np.uint8)
        cells[10:20, 8:18] = 1
        route = build_routes(BuildingLayout(cells))
        ring = set()
        for i in range(30):
            for j in range(30):
                if cells[i, j]:
                    continue
                if any(0 <= i + di < 30 and 0 <= j + dj < 30 and cells[i + di, j + dj]
                       for di in (-1, 0, 1) for dj in (-1, 0, 1)):
                    ring.add((i, j))
        visited = {(int(y), int(x)) for x, y in route.waypoints}
        assert visited == ring
        assert len(ring) == 44
        assert abs(route.cumulative_lengths()[-1] - len(ring)) <= 8 * math.sqrt(2)

    def test_waypoints_adjacent_free_cells(self):
        sc = generate_scenario(120, 120, 5, 1, seed=31)
        route = build_routes(sc.layout)
        cells = [(int(y), int(x)) for x, y in route.waypoints]
        for (i0, j0), (i1, j1) in zip(cells, cells[1:]):
            assert max(abs(i0 - i1), abs(j0 - j1)) == 1
            assert sc.layout.cells[i1, j1] == 0

    def test_deterministic(self):
        sc = generate_scenario(120, 120, 5, 1, seed=32)
        a = build_routes(sc.layout)
        b = build_routes(sc.layout)
        assert a.waypoints == b.waypoints

    def test_route_holds_its_arc_lengths(self):
        sc = generate_scenario(120, 120, 5, 1, seed=31)
        route = build_routes(sc.layout)
        pts = np.asarray(route.waypoints, dtype=np.float64)
        steps = np.hypot(np.diff(pts[:, 0]), np.diff(pts[:, 1]))
        expected = np.concatenate([[0.0], np.cumsum(steps)])
        assert route.cumulative_lengths().tobytes() == expected.tobytes()
        # routes compare by waypoints alone
        assert Route(waypoints=list(route.waypoints)) == route
        assert Route(waypoints=route.waypoints[:-1]) != route

    def test_covers_every_building(self):
        sc = generate_scenario(150, 150, 7, 1, seed=33)
        route = build_routes(sc.layout)
        visited = {(int(y), int(x)) for x, y in route.waypoints}
        # every building region must have at least one adjacent visited cell
        from scipy import ndimage
        labels, n = ndimage.label(sc.layout.cells, structure=np.ones((3, 3)))
        for rid in range(1, n + 1):
            region = np.argwhere(labels == rid)
            touched = any((i + di, j + dj) in visited
                          for i, j in region for di in (-1, 0, 1) for dj in (-1, 0, 1))
            assert touched

    def test_enclosed_building_is_error(self):
        cells = np.zeros((40, 40), dtype=np.uint8)
        cells[10:30, 10:30] = 1   # outer block
        cells[14:26, 14:26] = 0   # courtyard
        cells[18:22, 18:22] = 1   # enclosed building
        with pytest.raises(RouteError):
            build_routes(BuildingLayout(cells))

    def test_no_free_cells_is_error(self):
        with pytest.raises((RouteError, ValueError)):
            build_routes(BuildingLayout(np.ones((10, 10), dtype=np.uint8)))


class TestSampleAlong:
    def test_unit_interval_count(self, flat_global):
        ss = sample_along(straight_route(101), flat_global, 1)
        assert len(ss) == 101
        arc = np.hypot(*(ss.positions[1] - ss.positions[0]))
        assert arc == pytest.approx(1.0)

    def test_ten_second_interval_count(self, flat_global):
        ss = sample_along(straight_route(101), flat_global, 10)
        assert len(ss) == 11

    def test_counts_non_increasing_in_interval(self, params):
        sc = generate_scenario(120, 120, 5, 1, seed=34)
        g = rasterize_global(sc, params)
        route = build_routes(sc.layout)
        counts = [len(sample_along(route, g, iv)) for iv in (1, 2, 4, 6, 8, 10)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_noise_free_equals_field(self, params, flat_global):
        ss = sample_along(straight_route(80), flat_global, 2)
        for (x, y), v in zip(ss.positions, ss.values):
            assert v == flat_global.values[int(y), int(x)]

    def test_positions_on_route_cells(self, params):
        sc = generate_scenario(120, 120, 5, 1, seed=35)
        g = rasterize_global(sc, params)
        route = build_routes(sc.layout)
        cells = {(int(y), int(x)) for x, y in route.waypoints}
        ss = sample_along(route, g, 3)
        for x, y in ss.positions:
            assert (int(y), int(x)) in cells

    def test_closed_loop_merges_duplicate_endpoint(self, flat_global):
        # closed square loop of length 8; samples at arc 0 and 8 coincide
        ring = [(0, 0), (0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0), (0, 0)]
        route = Route(waypoints=[(j + 0.5, i + 0.5) for i, j in ring])
        ss = sample_along(route, flat_global, 2)
        assert len(ss) == 4  # 0, 2, 4, 6; arc 8 merged into arc 0

    @pytest.mark.parametrize("interval,speed", [(1, 1.0), (4, 1.0), (3, 0.7),
                                                (10, 1.3)])
    def test_bit_identical_to_loop(self, params, interval, speed):
        sc = generate_scenario(90, 90, 4, 2, seed=36)
        g = rasterize_global(sc, params)
        route = build_routes(sc.layout)
        ss = sample_along(route, g, interval, speed)
        positions, values = sample_along_loop(route, g.values, interval, speed)
        keep = first_occurrences_loop(positions)
        assert ss.positions.tobytes() == positions[keep].tobytes()
        assert ss.values.tobytes() == values[keep].tobytes()

    def test_merge_bit_identical_to_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            # few distinct positions, so most of them repeat
            grid = rng.random((6, 2)) * 10
            positions = grid[rng.integers(0, 6, size=40)]
            keep = first_occurrences(positions)
            assert keep.tobytes() == first_occurrences_loop(positions).tobytes()
            # a strided view, as samples_from_csv gives kriging
            rows = np.column_stack([positions, rng.normal(-60.0, 15.0, size=40)])
            assert first_occurrences(rows[:, :2]).tobytes() == keep.tobytes()

    @pytest.mark.parametrize("positions,expected", [
        ([(1.5, 2.5)], [0]),
        ([(j + 0.5, 3.5) for j in range(10)], range(10)),
        ([(4.5, 4.5)] * 7, [0]),
        # 0.0 == -0.0: one position each, found at its first occurrence
        ([(0.0, 1.0), (-0.0, 1.0), (2.0, -0.0), (2.0, 0.0), (-0.0, -0.0)], [0, 2, 4]),
        (np.empty((0, 2)), []),
    ], ids=["one", "distinct", "all_same", "signed_zero", "empty"])
    def test_merge_edge_cases_match_loop(self, positions, expected):
        keep = first_occurrences(np.asarray(positions, dtype=np.float64))
        assert keep.tolist() == list(expected)
        assert keep.tolist() == first_occurrences_loop(positions).tolist()

    def test_route_keeps_positions_per_step(self, params, flat_global):
        # the scenarios of a layout share one route: the positions of a step
        # (interval * speed) are computed once and every map is read at them
        route = straight_route(101)
        other = rasterize_global(make_flat_scenario([(70.5, 5.5)], size=120), params)
        first = sample_along(route, flat_global, 2)
        second = sample_along(route, other, 2)
        assert second.positions is first.positions
        assert not first.positions.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first.positions[0, 0] = 0.0
        cols, rows = second.positions.astype(np.int64).T
        assert second.values.tobytes() == other.values[rows, cols].tobytes()
        assert second.values.tobytes() != first.values.tobytes()
        assert sample_along(route, other, 1, 2.0).positions is first.positions
        coarse = sample_along(route, flat_global, 4)
        assert coarse.positions is not first.positions
        assert not coarse.positions.flags.writeable
        assert len(coarse) == 26 and len(first) == 51
        assert sample_along(route, flat_global, 4).positions is coarse.positions
        assert route == straight_route(101)

    def test_rejects_bad_interval(self, flat_global):
        with pytest.raises(ValueError):
            sample_along(straight_route(10), flat_global, 0)

    @pytest.mark.parametrize("speed", [0.0, -1.0])
    def test_rejects_non_positive_speed(self, flat_global, speed):
        with pytest.raises(ValueError, match="speed must be positive"):
            sample_along(straight_route(10), flat_global, 1, speed)


class TestNoise:
    def make_set(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return SampleSet(positions=rng.random((n, 2)) * 50,
                         values=np.full(n, -60.0))

    def test_zero_sigma_identity(self):
        ss = self.make_set(100)
        out = add_noise(ss, 0.0, seed=1)
        assert np.array_equal(out.values, ss.values)

    def test_empirical_std(self):
        ss = self.make_set(100000)
        out = add_noise(ss, 1.0, seed=2)
        delta = out.values - ss.values
        assert 0.98 <= float(delta.std()) <= 1.02
        assert abs(float(delta.mean())) < 0.02

    def test_same_seed_same_noise(self):
        ss = self.make_set(500)
        a = add_noise(ss, 2.0, seed=3)
        b = add_noise(ss, 2.0, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_positions_untouched(self):
        ss = self.make_set(50)
        out = add_noise(ss, 3.0, seed=4)
        assert np.array_equal(out.positions, ss.positions)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            add_noise(self.make_set(5), -1.0, seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, not -1$"):
            add_noise(self.make_set(5), 1.0, -1)

    @pytest.mark.parametrize("seed", [1.5, "7", True])
    def test_non_integer_seed_rejected_by_name(self, seed):
        with pytest.raises(ValueError, match=f"^seed must be an integer >= 0, not {seed!r}$"):
            add_noise(self.make_set(5), 1.0, seed)

    def test_every_seed_draws_its_own_noise(self):
        # 2**64 and 0 differ, as do the two ends of the 64-bit range
        ss = self.make_set(50)
        draws = [add_noise(ss, 1.0, seed).values.tobytes()
                 for seed in (0, 2**64, 2**64 - 1, 1)]
        assert len(set(draws)) == 4


class TestSampleSet:
    def test_empty_sample_set_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(positions=np.empty((0, 2)), values=np.empty(0))
