import math

import numpy as np
import pytest

from rssloc import (P_MAX_DBM, P_MIN_DBM, BuildingLayout, PropagationParams,
                    RadioMap, Scenario, Source, aggregate_rss, encode_bitmap,
                    ground_truth_local, path_loss, rasterize_global)
from rssloc.propagation import (building_rectangles, local_disk_mask,
                                segment_building_lengths, source_dbm)

from conftest import generate_scenario, make_flat_scenario
from oracles import clip_building_length, traverse_all_cells


class TestPathLoss:
    def test_reference_distance(self, params):
        assert path_loss(1.0, params) == 38.5

    def test_one_decade(self, params):
        assert path_loss(10.0, params) == pytest.approx(68.5, abs=1e-12)

    def test_long_range_high_precision(self, params):
        # 38.5 + 30 log10(200), evaluated independently at 40 digits
        assert path_loss(200.0, params) == pytest.approx(107.53089986991944, abs=1e-10)

    def test_clamped_below_reference(self, params):
        assert path_loss(0.0, params) == 38.5
        assert path_loss(0.5, params) == 38.5

    def test_strictly_increasing(self, params):
        d = np.linspace(1.0, 300.0, 500)
        losses = path_loss(d, params)
        assert np.all(np.diff(losses) > 0)


def field_at(cells, source, cell, params):
    """rasterize_global's dBm value at one cell for a one-source scenario."""
    sc = Scenario(layout=BuildingLayout(cells), sources=[source], id="t", rng_seed=0)
    return rasterize_global(sc, params).values[cell]


class TestParams:
    @pytest.mark.parametrize("field,value,noun", [
        ("l0", math.nan, "a finite number"),
        ("l0", math.inf, "a finite number"),
        ("d0", 0.0, "a finite number > 0"),
        ("eta", -3.0, "a finite number > 0"),
        ("eta", math.inf, "a finite number > 0"),
        ("sigma_shadow", -1.0, "a finite number >= 0"),
        ("beta_penetration", "2", "a finite number >= 0"),
        ("beta_penetration", True, "a finite number >= 0"),
        ("penetration_cap", -5.0, "a finite number >= 0"),
        ("penetration_cap", math.inf, "a finite number >= 0"),
    ])
    def test_invalid_channel_rejected(self, field, value, noun):
        with pytest.raises(ValueError, match=f"^{field} must be {noun}, not "):
            PropagationParams(**{field: value})

    def test_range_edges_accepted(self):
        PropagationParams(l0=-10, d0=np.float32(0.5), eta=1, sigma_shadow=0.0,
                          beta_penetration=0, penetration_cap=0.0)


def lengths(start, rows, cols, cells):
    """segment_building_lengths from start to the centres of cells
    (rows[k], cols[k]) of the grid cells."""
    return segment_building_lengths(start, rows, cols, building_rectangles(cells),
                                    cells.shape)


def centres(rows, cols):
    """The (x, y) centres of cells (rows[k], cols[k]), as the oracles take them."""
    return np.column_stack([np.asarray(cols) + 0.5, np.asarray(rows) + 0.5])


class TestPenetration:
    def test_free_segment(self, flat_layout):
        d, inside = lengths((1.5, 1.5), [20], [40], flat_layout.cells)
        assert inside[0] == 0.0
        assert d[0] == math.hypot(39.0, 19.0)

    def test_three_meter_crossing(self):
        cells = np.zeros((20, 20), dtype=np.uint8)
        cells[5:8, 10] = 1  # 3 m tall, 1 m wide column
        assert lengths((10.5, 2.0), [12], [10], cells)[1][0] == \
            pytest.approx(3.0, abs=1e-12)

    def test_cap_binds(self, params):
        cells = np.zeros((60, 60), dtype=np.uint8)
        cells[10:50, 30] = 1
        src = Source(30.5, 5.5)
        # 40 m of interior would be 80 dB; the cell 50 m away behind the
        # wall loses the 60 dB cap on top of its path loss
        assert params.beta_penetration * 40.0 > params.penetration_cap
        expected = (src.tx_power_dbm + src.gain_dbi - path_loss(50.0, params)
                    - params.penetration_cap)
        assert field_at(cells, src, (55, 30), params) == \
            pytest.approx(expected, abs=1e-12)

    def test_against_clipping_oracle(self, params):
        rng = np.random.default_rng(42)
        for _ in range(100):
            cells = (rng.random((24, 24)) < 0.3).astype(np.uint8)
            a = tuple(rng.random(2) * 24)
            i, j = rng.integers(0, 24, size=2)
            fast = lengths(a, [i], [j], cells)[1][0]
            assert fast == pytest.approx(
                clip_building_length(a, (j + 0.5, i + 0.5), cells), abs=1e-9)

    def test_batched_matches_single(self, params):
        # cells in no order, some repeated and some beyond the border
        rng = np.random.default_rng(7)
        cells = (rng.random((30, 30)) < 0.25).astype(np.uint8)
        a = (3.3, 4.4)
        rows, cols = rng.integers(-3, 33, size=(2, 50))
        assert_batch_is_single(a, rows, cols, cells)

    @pytest.mark.parametrize("case", ["free cells", "border buildings",
                                      "still rays", "one cell", "disk union"])
    def test_batched_matches_single_at_cell_centres(self, case):
        # a batch is clipped over its cells' window, a one-cell call over a
        # 1x1 window
        sc = generate_scenario(70, 70, 3, 2, seed=23)
        cells, start = sc.layout.cells, sc.sources[0].position
        if case in ("border buildings", "still rays"):
            # rectangles with infinite sides on every border
            cells = np.zeros((20, 24), dtype=np.uint8)
            cells[:5, 3:9] = cells[12:, :4] = cells[8:11, 18:] = cells[16:, 12:] = 1
            # on the centre row and column of cell (6, 7), which a ray ends at
            start = (11.3, 6.7) if case == "border buildings" else (7.5, 6.5)
        rows, cols = np.nonzero(cells == 0)
        if case == "one cell":
            rows, cols = rows[:1], cols[:1]
        elif case == "disk union":
            rows, cols = np.nonzero(local_disk_mask(sc, 2.0) & (cells == 0))
        assert_batch_is_single(start, rows, cols, cells)
        # with cells up to 3 beyond each border, which widen the window
        h, w = cells.shape
        rows = np.concatenate([rows, [-3, -1, h, h + 2, 0, h - 1]])
        cols = np.concatenate([cols, [-2, w + 2, 0, w - 1, -3, w]])
        assert_batch_is_single(start, rows, cols, cells)
        assert_agrees(start, rows, cols, cells)


def assert_batch_is_single(start, rows, cols, cells):
    """Both lengths of each cell of a batch have the bytes of its own one-cell
    call, and the segment length is the hypot of the centre offsets."""
    batched = lengths(start, rows, cols, cells)
    singles = [lengths(start, [i], [j], cells) for i, j in zip(rows, cols)]
    for k, batch in enumerate(batched):
        assert batch.tobytes() == np.concatenate([s[k] for s in singles]).tobytes()
    offsets = centres(rows, cols) - start
    assert batched[0].tobytes() == np.hypot(offsets[:, 0], offsets[:, 1]).tobytes()


# the clip and the cell traversal are both exact, but round differently
AGREEMENT_M = 1e-9


def assert_agrees(start, rows, cols, cells):
    fast = lengths(start, rows, cols, cells)[1]
    full = traverse_all_cells(start, centres(rows, cols), cells)
    assert np.abs(fast - full).max() <= AGREEMENT_M


class TestPrunedTraversal:
    """The rectangle clip, which visits only the rectangles that cover the
    buildings, against the traversal of every cell a segment crosses."""

    @pytest.mark.parametrize("density", [0.0, 0.02, 0.1, 0.3, 0.8])
    def test_random_layouts(self, density):
        rng = np.random.default_rng(int(density * 100) + 3)
        for _ in range(40):
            h, w = rng.integers(8, 40, size=2)
            cells = (rng.random((h, w)) < density).astype(np.uint8)
            assert_agrees(rng.random(2) * (w, h), rng.integers(0, h, size=60),
                          rng.integers(0, w, size=60), cells)

    def test_generated_layout_every_cell(self):
        # every free cell of a generated layout, as rasterize_global sends them
        sc = generate_scenario(70, 70, 3, 2, seed=23)
        rows, cols = np.nonzero(sc.layout.cells == 0)
        for src in sc.sources:
            assert_agrees(src.position, rows, cols, sc.layout.cells)

    def test_axis_aligned_rays(self):
        # starts on the centre line of column 12 and of row 7
        rng = np.random.default_rng(32)
        cells = (rng.random((25, 30)) < 0.2).astype(np.uint8)
        assert_agrees((12.5, 7.8), rng.integers(0, 25, size=40), np.full(40, 12),
                      cells)
        assert_agrees((12.3, 7.5), np.full(40, 7), rng.integers(0, 30, size=40),
                      cells)

    def test_start_on_grid_line(self):
        rng = np.random.default_rng(33)
        cells = (rng.random((24, 24)) < 0.3).astype(np.uint8)
        for start in [(6.0, 9.5), (6.5, 9.0), (6.0, 9.0),
                      (np.nextafter(6.0, 0.0), 9.5), (np.nextafter(6.0, 7.0), 9.5)]:
            rows, cols = rng.integers(0, 24, size=(2, 60))
            assert_agrees(start, rows, cols, cells)

    def test_out_of_grid_endpoints(self):
        # clipped lookups charge the outside parts to the edge row or column
        rng = np.random.default_rng(34)
        for _ in range(40):
            cells = (rng.random((16, 22)) < 0.2).astype(np.uint8)
            cells[:, 0] |= rng.random(16) < 0.5
            cells[:, -1] |= rng.random(16) < 0.5
            assert_agrees(rng.random(2) * (42, 36) - 10, rng.integers(-10, 26, size=60),
                          rng.integers(-10, 32, size=60), cells)

    def test_one_ulp_off_grid_line(self):
        # both segments stay in column 5, left of the line x = 6: 0.5 m of
        # row 9, then the first eighth of the way to (5, 5); column 6 holds
        # 3 m that neither enters
        cells = np.zeros((12, 12), dtype=np.uint8)
        cells[9, 5] = 1
        cells[[5, 8, 9], 6] = 1
        start, rows, cols = (np.nextafter(6.0, 0.0), 9.5), [9, 5], [5, 5]
        expected = [0.5, math.hypot(0.5, 4.0) / 8.0]
        assert [clip_building_length(start, end, cells)
                for end in centres(rows, cols)] == pytest.approx(expected, abs=1e-12)
        assert lengths(start, rows, cols, cells)[1] == pytest.approx(expected,
                                                                     abs=1e-12)
        assert_agrees(start, rows, cols, cells)

    def test_one_ulp_below_row_line(self):
        # each segment starts one ulp below the row line y, in row y - 1,
        # although a point on it can round onto the line; it ends in the row
        # below the line or the row above it
        rng = np.random.default_rng(38)
        for _ in range(200):
            cells = (rng.random((20, 20)) < 0.5).astype(np.uint8)
            y = int(rng.integers(1, 20))
            start = (rng.random() * 20, np.nextafter(float(y), 0.0))
            i, j = y - int(rng.integers(0, 2)), int(rng.integers(0, 20))
            expected = clip_building_length(start, (j + 0.5, i + 0.5), cells)
            assert abs(traverse_all_cells(start, centres([i], [j]), cells)[0]
                       - expected) <= AGREEMENT_M
            assert abs(lengths(start, [i], [j], cells)[1][0] - expected) \
                <= AGREEMENT_M

    def test_out_of_grid_corners(self):
        # both coordinates outside: the corner cell stands for the quadrant
        rng = np.random.default_rng(36)
        h, w = 14, 18
        corners = np.array([(-6.0, -5.0), (w + 4.0, -3.0), (-2.0, h + 7.0),
                            (w + 5.0, h + 2.0)])
        for _ in range(20):
            cells = (rng.random((h, w)) < 0.2).astype(np.uint8)
            cells[[0, 0, -1, -1], [0, -1, 0, -1]] = rng.random(4) < 0.7
            for start in corners:
                # cells such as (-2, -3) near each corner, and cells of the grid
                near = np.floor(corners).astype(int) + rng.integers(-1, 2, size=(4, 2))
                rows = np.concatenate([near[:, 1], rng.integers(0, h, size=40)])
                cols = np.concatenate([near[:, 0], rng.integers(0, w, size=40)])
                assert_agrees(start + rng.random(2), rows, cols, cells)

    def test_corner_quadrant_is_corner_cell(self):
        cells = np.zeros((10, 10), dtype=np.uint8)
        cells[0, 0] = 1
        inside = lengths((-3.0, -1.0), [-3, 0, 5], [-2, 0, -1], cells)[1]
        # in the quadrant, to the corner cell's centre, then out at y = 1
        assert inside == pytest.approx([math.hypot(1.5, 1.5), math.hypot(3.5, 1.5),
                                        2.0 / 6.5 * math.hypot(2.5, 6.5)], abs=1e-12)

    def test_noisy_layout_every_cell(self):
        # about 1.9k rectangles, most of them one or two cells
        rng = np.random.default_rng(37)
        cells = (rng.random((100, 100)) < 0.3).astype(np.uint8)
        rows, cols = np.nonzero(cells == 0)
        for start in [(50.3, 49.6), (0.7, 99.2), (-12.5, 37.1),
                      (cols[0] + 0.5, rows[0] + 0.5)]:
            assert_agrees(start, rows, cols, cells)

    def test_out_of_grid_charges_edge_column(self):
        cells = np.zeros((10, 10), dtype=np.uint8)
        cells[4, 0] = 1
        cells[4, 6] = 1
        # 3 m left of the grid, column 0 and column 6 on the way to (4, 7)
        assert lengths((-3.0, 4.5), [4], [7], cells)[1][0] == \
            pytest.approx(5.0, abs=1e-12)


class TestSourceDbm:
    """The one forward model, at cell centres."""

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_free_cells_equal_one_source_map(self, params, seed):
        sc = generate_scenario(70, 70, 3, 3, seed=seed)
        cells = sc.layout.cells
        rows, cols = np.nonzero(cells == 0)
        rects = building_rectangles(cells)
        for src in sc.sources + [Source(*sc.sources[0].position, 17.0, 3.0)]:
            single = Scenario(layout=sc.layout, sources=[src], id="t", rng_seed=0)
            expected = rasterize_global(single, params).values[rows, cols]
            field = source_dbm(src, rows, cols, rects, cells.shape, params)
            assert field.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [44, 45, 46, 47])
    def test_reciprocity(self, params, seed):
        # between the centres of two cells
        sc = generate_scenario(80, 60, 4, 1, seed=seed)
        cells = sc.layout.cells
        rects = building_rectangles(cells)
        rng = np.random.default_rng(seed)
        for (ia, ib), (ja, jb) in zip(rng.integers(0, 60, size=(200, 2)),
                                      rng.integers(0, 80, size=(200, 2))):
            forward = source_dbm(Source(ja + 0.5, ia + 0.5, 0.0, 0.0), [ib], [jb],
                                 rects, cells.shape, params)
            back = source_dbm(Source(jb + 0.5, ib + 0.5, 0.0, 0.0), [ia], [ja],
                              rects, cells.shape, params)
            assert abs(forward[0] - back[0]) <= 1e-9


class TestReceivedPower:
    """Per-source received power, read from rasterize_global cells."""

    def test_clamp_rule_near_field(self, params, flat_layout):
        assert field_at(flat_layout.cells, Source(10.5, 10.5), (10, 10), params) == \
            pytest.approx(-4.5, abs=1e-12)

    def test_los_ten_meters(self, params, flat_layout):
        assert field_at(flat_layout.cells, Source(10.5, 10.5), (10, 20), params) == \
            pytest.approx(-34.5, abs=1e-12)

    def test_composes_with_penetration(self, params):
        cells = np.zeros((30, 30), dtype=np.uint8)
        cells[9:12, 15] = 1  # 3 m wall between source and cell, 10 m apart
        assert field_at(cells, Source(15.5, 5.5), (15, 15), params) == \
            pytest.approx(-34.5 - 6.0, abs=1e-12)


class TestAggregate:
    def test_identity(self):
        assert aggregate_rss([-60.0]) == -60.0

    def test_equal_pair(self):
        assert aggregate_rss([-60.0, -60.0]) == pytest.approx(-56.98970004336019,
                                                              abs=1e-12)

    def test_disparate_pair_high_precision(self):
        # linear-domain sum evaluated independently at 40 digits
        assert aggregate_rss([-60.0, -90.0]) == pytest.approx(-59.99565922520681,
                                                              abs=1e-10)

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            aggregate_rss([])

    def test_dominance_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            powers = rng.uniform(-120, 0, size=rng.integers(1, 9))
            total = aggregate_rss(powers)
            assert total >= powers.max()
            assert total <= powers.max() + 10 * math.log10(len(powers))


class TestRasterizeGlobal:
    def test_single_source_monotone_with_distance(self, params):
        sc = make_flat_scenario([(30.5, 30.5)])
        g = rasterize_global(sc, params)
        d = np.hypot(np.arange(60) + 0.5 - 30.5, 0)
        row = g.values[30, :]
        order = np.argsort(d)
        assert np.all(np.diff(row[order]) <= 1e-12)

    def test_two_source_symmetry(self, params):
        # equal sources mirror-symmetric about the map's vertical center line
        sc = make_flat_scenario([(19.5, 30.5), (40.5, 30.5)])
        g = rasterize_global(sc, params)
        assert np.allclose(g.values, g.values[:, ::-1], atol=1e-9)

    def test_dominates_per_source_fields(self, params):
        sc = make_flat_scenario([(15.2, 40.1), (44.7, 18.3), (30.0, 30.0)])
        g = rasterize_global(sc, params)
        for src in sc.sources:
            single = make_flat_scenario([(src.x, src.y)])
            gs = rasterize_global(single, params)
            assert np.all(g.values >= gs.values)

    @pytest.mark.parametrize("m", [3, 9])
    def test_free_cells_aggregate_single_source_fields(self, params, m):
        # every map sums its sources through aggregate_rss, so each free cell
        # is aggregate_rss of the one-source fields there, bit for bit
        sc = generate_scenario(60, 60, 3, m, seed=23)
        g = rasterize_global(sc, params)
        singles = [rasterize_global(Scenario(layout=sc.layout, sources=[src],
                                             id="t", rng_seed=0), params).values
                   for src in sc.sources]
        for i, j in np.argwhere(sc.layout.cells == 0):
            assert g.values[i, j] == aggregate_rss([s[i, j] for s in singles])

    def test_building_cells_hold_floor(self, params):
        sc = generate_scenario(80, 80, 3, 2, seed=17)
        g = rasterize_global(sc, params)
        assert np.all(g.values[sc.layout.cells != 0] == -110.0)

    def test_reproducible(self, params):
        sc = generate_scenario(80, 80, 3, 2, seed=18)
        a = rasterize_global(sc, params)
        b = rasterize_global(sc, params)
        assert np.array_equal(a.values, b.values)

    def test_shadowed_field_reproducible(self):
        noisy = PropagationParams(sigma_shadow=3.0)
        sc = generate_scenario(60, 60, 2, 2, seed=19)
        a = rasterize_global(sc, noisy)
        b = rasterize_global(sc, noisy)
        assert np.array_equal(a.values, b.values)

    def test_shadow_seed_is_not_masked(self):
        # 2**64 and 0 draw different shadowing; a negative seed has none
        noisy = PropagationParams(sigma_shadow=3.0)
        sc = make_flat_scenario([(20.5, 20.5)], size=40)
        fields = []
        for seed in (0, 2**64):
            sc.rng_seed = seed
            fields.append(rasterize_global(sc, noisy).values.tobytes())
        assert fields[0] != fields[1]
        sc.rng_seed = -1
        with pytest.raises(ValueError):
            rasterize_global(sc, noisy)


class TestGroundTruthLocal:
    def test_thirteen_pixels_at_center(self, params):
        sc = make_flat_scenario([(30.5, 30.5)])
        local = ground_truth_local(sc, params, 2.0)
        assert int(np.count_nonzero(local.values)) == 13

    def test_two_disjoint_disks(self, params):
        sc = make_flat_scenario([(20.5, 30.5), (30.5, 30.5)])
        local = ground_truth_local(sc, params, 2.0)
        assert int(np.count_nonzero(local.values)) == 26

    def test_edge_clipping(self, params):
        sc = make_flat_scenario([(0.5, 30.5)])
        local = ground_truth_local(sc, params, 2.0)
        # disk of 13 loses the two columns left of the border
        assert 0 < int(np.count_nonzero(local.values)) < 13

    def test_fast_path_equals_masked_global(self, params):
        sc = generate_scenario(100, 100, 4, 3, seed=21)
        g = rasterize_global(sc, params)
        fast = ground_truth_local(sc, params, 2.0)
        full = ground_truth_local(sc, params, 2.0, global_map=g)
        assert np.array_equal(fast.values, full.values)

    def test_masking_idempotent(self, params):
        sc = generate_scenario(100, 100, 4, 3, seed=22)
        local = ground_truth_local(sc, params, 2.0)
        mask = local_disk_mask(sc, 2.0)
        remasked = np.where(mask, local.values, 0)
        assert np.array_equal(remasked, local.values)

    def test_rejects_nonpositive_radius(self, params):
        sc = make_flat_scenario([(30.5, 30.5)])
        with pytest.raises(ValueError):
            ground_truth_local(sc, params, 0.0)


class TestBitmap:
    def test_endpoints(self):
        assert (P_MIN_DBM, P_MAX_DBM) == (-110.0, 0.0)
        assert encode_bitmap(-110.0) == 0
        assert encode_bitmap(0.0) == 255
        assert encode_bitmap(-200.0) == 0
        assert encode_bitmap(50.0) == 255

    def test_round_half_up(self):
        assert encode_bitmap(-55.0) == 128

    def test_monotone(self):
        p = np.sort(np.random.default_rng(5).uniform(-130, 10, 500))
        v = encode_bitmap(p)
        assert np.all(np.diff(v.astype(int)) >= 0)

    def test_in_disk_values_stay_high(self, params):
        # worst LOS case inside r=2: d = 2 gives -13.53 dBm -> 224; the whole
        # disk therefore encodes comfortably above the binarization threshold
        rng = np.random.default_rng(9)
        for _ in range(25):
            pos = 10 + rng.random(2) * 40
            sc = make_flat_scenario([tuple(pos)])
            local = ground_truth_local(sc, params, 2.0)
            nz = local.values[local.values > 0]
            assert nz.min() >= 200
            assert nz.min() >= 224  # frozen from the d=2 worst case


class TestRadioMapType:
    def test_dtype_says_unit(self):
        assert RadioMap(np.zeros((3, 3))).is_dbm
        assert RadioMap(np.zeros((3, 3), dtype=np.float32)).is_dbm
        assert not RadioMap(np.zeros((3, 3), dtype=np.uint8)).is_dbm
        assert not RadioMap(np.full((3, 3), 255, dtype=np.int64)).is_dbm

    @pytest.mark.parametrize("dtype", [bool, np.complex128, object, "U1"])
    def test_other_dtypes_rejected(self, dtype):
        with pytest.raises(ValueError, match="float .dBm. or integer .bitmap."):
            RadioMap(np.zeros((3, 3), dtype=dtype))

    @pytest.mark.parametrize("value", [-1, 256])
    def test_bitmap_outside_0_255_rejected(self, value):
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            RadioMap(np.full((3, 3), value, dtype=np.int16))

    def test_values_must_be_2d(self):
        with pytest.raises(ValueError, match="2D"):
            RadioMap(np.zeros(3))
