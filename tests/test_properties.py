"""Property tests: file-format round trips, malformed PGM and LRMF headers,
the invariants of the evaluation metrics, the assignment solver against
scipy's, the run-based labeling, its bounding boxes and the 3x3 dilation
against scipy.ndimage, route bridges against the loop oracle, the first
occurrence of each sample position against a dict oracle, the rectangle
cover of building cells, the clip's block at strided axes against its
contiguous window, augmentation equivariance of separation and
localization, the centroids of every component against one masked map per
component and against scipy.ndimage, stacked kriging and IDW predictions against one call per
value row, and the blocked squared distances against the broadcast formula."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage
from scipy.optimize import linear_sum_assignment

from oracles import (AUGMENTATIONS, augment_grid, augment_points, bfs_path_loop,
                     center_of_mass_per_map, first_occurrences_loop)
from rssloc import (LrmfError, PgmError, SampleSet, decode_lrmf, decode_pgm,
                    encode_lrmf, encode_pgm, evaluate_scenario, localize_all,
                    ospa, mle, separate_sources)
from rssloc.dataset_io import (predictions_from_csv, predictions_to_csv,
                               samples_from_csv, samples_to_csv)
from rssloc.metrics import _cost_matrix, _lsap
from rssloc.propagation import building_rectangles, segment_building_lengths
from rssloc.reconstruct import (_PAIRS_PER_BLOCK, _squared_distance_blocks,
                                idw_predict, kriging_predict)
from rssloc.sampling import RouteError, _bfs_path, first_occurrences
from rssloc.scenario import dilate, disk_cells, label_by_bbox

# small example counts keep the whole suite near a minute
FEW = settings(max_examples=40, deadline=None)

grids = arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24)))
# every float32 bit pattern (NaN payloads, infinities, -0.0), empty sides too
float_grids = arrays(np.uint32, st.tuples(st.integers(0, 24), st.integers(0, 24))
                     ).map(lambda bits: bits.view(np.float32))
coords = st.floats(-1e4, 1e4, allow_nan=False)
points = st.lists(st.tuples(st.floats(0, 200), st.floats(0, 200)), max_size=6)


@FEW
@given(grids)
def test_pgm_roundtrip(grid):
    data = encode_pgm(grid)
    assert data.startswith(b"P5\n%d %d\n255\n" % (grid.shape[1], grid.shape[0]))
    out = decode_pgm(data)
    assert out.dtype == np.uint8
    assert np.array_equal(out, grid)


@FEW
@given(st.binary(max_size=40))
def test_pgm_decode_raises_only_pgm_error(data):
    try:
        grid = decode_pgm(data)
    except PgmError:
        return
    assert grid.dtype == np.uint8


@FEW
@given(grids, st.sampled_from(["magic", "width", "maxval", "raster"]),
       st.data())
def test_pgm_malformed_header_rejected(grid, field, data):
    h, w = grid.shape
    magic, width, maxval, raster = b"P5", b"%d" % w, b"255", grid.tobytes()
    if field == "magic":
        magic = data.draw(st.sampled_from([b"P2", b"P6", b"P4", b"5P", b"p5"]))
    elif field == "width":
        width = data.draw(st.sampled_from([b"x", b"-1", b"1.5", b"2e3", b"0x10"]))
    elif field == "maxval":
        maxval = b"%d" % data.draw(st.integers(0, 70000).filter(lambda v: v != 255))
    else:
        raster = raster[:data.draw(st.integers(0, len(raster) - 1))]
    with pytest.raises(PgmError):
        decode_pgm(magic + b"\n" + width + b" %d\n" % h + maxval + b"\n" + raster)


@FEW
@given(float_grids)
def test_lrmf_roundtrip(grid):
    h, w = grid.shape
    data = encode_lrmf(grid)
    assert data[:12] == b"LRMF" + w.to_bytes(4, "little") + h.to_bytes(4, "little")
    out = decode_lrmf(data)
    assert out.dtype == np.float32 and out.shape == (h, w)
    assert out.tobytes() == grid.tobytes()


@FEW
@given(st.one_of(st.binary(max_size=40),
                 st.binary(max_size=40).map(lambda tail: b"LRMF" + tail)))
def test_lrmf_decode_raises_only_lrmf_error(data):
    try:
        grid = decode_lrmf(data)
    except LrmfError:
        return
    assert grid.dtype == np.float32 and grid.ndim == 2


@FEW
@given(float_grids, st.sampled_from(["magic", "header", "short", "long"]), st.data())
def test_lrmf_malformed_rejected(grid, field, data):
    good = encode_lrmf(grid)
    if field == "magic":
        bad = data.draw(st.binary(min_size=4, max_size=4).filter(
            lambda magic: magic != b"LRMF")) + good[4:]
    elif field == "header":
        bad = good[:data.draw(st.integers(4, 11))]
    elif field == "short":
        assume(grid.size > 0)
        bad = good[:data.draw(st.integers(12, len(good) - 1))]
    else:
        bad = good + data.draw(st.binary(min_size=1, max_size=9))
    with pytest.raises(LrmfError):
        decode_lrmf(bad)


@FEW
@given(st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=20))
def test_samples_csv_roundtrip(rows):
    rows = np.array(rows)
    sample_set = SampleSet(positions=rows[:, :2], values=rows[:, 2])
    text = samples_to_csv(sample_set)
    back = samples_from_csv(text)
    assert np.allclose(back.positions, sample_set.positions, rtol=0, atol=5e-7)
    assert np.allclose(back.values, sample_set.values, rtol=0, atol=5e-7)
    assert samples_to_csv(back) == text


@FEW
@given(st.lists(st.tuples(st.integers(0, 10**6), coords, coords, st.booleans()),
                max_size=20))
def test_predictions_csv_roundtrip(rows):
    ids = [cid for cid, _, _, _ in rows]
    pts = [(x, y) for _, x, y, _ in rows]
    flags = [flag for _, _, _, flag in rows]
    text = predictions_to_csv(ids, pts, flags)
    back_ids, back_pts, back_flags = predictions_from_csv(text)
    assert back_ids == ids and back_flags == flags
    assert np.allclose(np.reshape(back_pts, (-1, 2)), np.reshape(pts, (-1, 2)),
                       rtol=0, atol=5e-7)
    assert predictions_to_csv(back_ids, back_pts, back_flags) == text


@FEW
@given(points, points.filter(len), st.floats(0.5, 100))
def test_metric_invariants(pred, true, g):
    ev = evaluate_scenario(pred, true, g)
    assert 0.0 <= ev.ospa <= g * (1 + 1e-12)
    assert ev.ospa == pytest.approx(ospa(true, pred, g), rel=1e-9, abs=1e-12)
    if pred:
        assert ev.mle >= 0.0
    else:
        assert ev.mle is None
    assert 0.0 <= ev.far <= 1.0 and 0.0 <= ev.mdr <= 1.0
    assert (ev.m, ev.m_hat) == (len(true), len(pred))


def _solved(solve, cost):
    """(rows, cols) as lists, or the message of the ValueError raised."""
    try:
        return tuple(np.asarray(a).tolist() for a in solve(cost))
    except ValueError as exc:
        return str(exc)


shapes = st.tuples(st.integers(0, 9), st.integers(0, 9))
# costs of 0, 1 and 2 tie nearly everywhere; +inf entries make some
# matrices infeasible
tie_costs = arrays(np.float64, shapes, elements=st.sampled_from([0.0, 1.0, 2.0]))
inf_costs = arrays(np.float64, shapes,
                   elements=st.sampled_from([0.0, 1.0, 2.0, math.inf]))
grid_points = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=9)


@settings(max_examples=300, deadline=None)
@given(st.one_of(tie_costs, inf_costs))
def test_lsap_matches_scipy_on_ties(cost):
    assert _solved(_lsap, cost) == _solved(linear_sum_assignment, cost)


@settings(max_examples=200, deadline=None)
@given(grid_points, grid_points, st.sampled_from([math.inf, 20.0, 2.0, 0.5]))
def test_lsap_matches_scipy_on_grid_points(pred, true, cutoff):
    cost = _cost_matrix(pred, true, cutoff)
    assert _solved(_lsap, cost) == _solved(linear_sum_assignment, cost)


@pytest.mark.parametrize("shape", [(0, 0), (0, 4), (4, 0)])
def test_lsap_empty_shapes(shape):
    assert _lsap(np.zeros(shape)) == ([], [])


@FEW
@given(tie_costs.filter(lambda c: c.size), st.integers(0, 80),
       st.sampled_from([math.nan, -math.inf]))
def test_lsap_rejects_nan_and_negative_infinity(cost, at, bad):
    cost.flat[at % cost.size] = bad
    assert (_solved(_lsap, cost) == _solved(linear_sum_assignment, cost)
            == "matrix contains invalid numeric entries")


def test_mle_with_infinite_coordinate_is_infeasible():
    with pytest.raises(ValueError, match="infeasible"):
        mle([(math.inf, 0.0)], [(1.0, 1.0), (2.0, 2.0)])


# the mask and the (start, goal) picks come from a drawn seed: drawn one by
# one, the picks mostly land on the first free cell, so start == goal
@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 30), st.integers(1, 30)), st.floats(0.3, 1.0),
       st.integers(0, 2**32 - 1))
def test_bfs_path_matches_loop_oracle(shape, density, seed):
    rng = np.random.default_rng(seed)
    free = rng.random(shape) < density
    cells = [(int(i), int(j)) for i, j in np.argwhere(free)]
    assume(cells)
    for _ in range(4):
        start = cells[rng.integers(len(cells))]
        anywhere = tuple(int(k) for k in rng.integers(0, shape))
        for goal in (start, cells[rng.integers(len(cells))], anywhere):
            try:
                expected = bfs_path_loop(free, start, goal)
            except RouteError:
                with pytest.raises(RouteError):
                    _bfs_path(free, start, goal)
                continue
            assert _bfs_path(free, start, goal) == expected


# coordinates from a small pool (signed zeros included) make most rows repeat
pool_coords = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 2.0, 7.25]), coords)


@FEW
@given(st.lists(st.tuples(pool_coords, pool_coords), max_size=40))
def test_first_occurrences_matches_dict_oracle(rows):
    positions = np.array(rows, dtype=np.float64).reshape(-1, 2)
    assert first_occurrences(positions).tolist() == \
        first_occurrences_loop(positions).tolist()


# any uint8 grid, or seeded grids from sparse to full
occupancy_grids = st.one_of(grids, st.builds(
    lambda shape, density, seed: np.random.default_rng(seed).random(shape) < density,
    st.tuples(st.integers(1, 30), st.integers(1, 30)), st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1)))


STRUCTURES = {4: None, 8: np.ones((3, 3), dtype=bool)}   # None: ndimage's cross


def _serpentine(n):
    """Every other row set, joined at alternate ends: one n x n component
    whose rows chain end to end."""
    grid = np.zeros((n, n), dtype=bool)
    grid[::2] = True
    grid[1::4, -1] = True
    grid[3::4, 0] = True
    return grid


def _assert_label_matches_ndimage(mask, connectivity):
    # ndimage numbers components in raster order; label_by_bbox renumbers
    # them by the (top, left) corner of their boxes, ties in raster order
    labels, boxes = label_by_bbox(mask, connectivity)
    raster, n = ndimage.label(mask, structure=STRUCTURES[connectivity])
    raster_boxes = ndimage.find_objects(raster) if mask.size else []
    order = sorted(range(n), key=lambda k: (raster_boxes[k][0].start,
                                            raster_boxes[k][1].start))
    rank = np.zeros(n + 1, dtype=raster.dtype)
    rank[np.array(order, dtype=np.intp) + 1] = np.arange(1, n + 1)
    expected = rank[raster]
    assert labels.dtype == expected.dtype
    assert np.array_equal(labels, expected)
    assert boxes == [raster_boxes[k] for k in order]


@FEW
@given(occupancy_grids, st.sampled_from([4, 8]))
def test_label_matches_ndimage(mask, connectivity):
    _assert_label_matches_ndimage(mask, connectivity)


@pytest.mark.parametrize("connectivity", [4, 8])
@pytest.mark.parametrize("mask", [
    np.zeros((7, 9), dtype=bool), np.ones((7, 9), dtype=bool),
    np.zeros((0, 5), dtype=bool), np.zeros((5, 0), dtype=bool),
    np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], dtype=np.uint8),
    np.array([[1], [1], [0], [1], [0], [1]], dtype=np.uint8),
    np.eye(12, dtype=np.uint8)[::-1] * 255, _serpentine(200), ~_serpentine(200)],
    ids=["empty", "full", "no-rows", "no-columns", "single-row", "single-column",
         "anti-diagonal", "serpentine", "serpentine-gaps"])
def test_label_matches_ndimage_on_edge_cases(mask, connectivity):
    _assert_label_matches_ndimage(mask, connectivity)


# centres inside, on and beyond the grid, so that some disks are clipped by
# the border; radii from under half a cell to wider than the grid
@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(1, 30), st.integers(1, 30)),
       st.floats(-5.0, 35.0), st.floats(-5.0, 35.0), st.floats(0.01, 40.0))
def test_free_disk_is_one_4_connected_set(shape, x, y, r):
    # scenario._draw labels only disks that a building cuts
    rows, cols = disk_cells(x, y, r, shape)
    assume(len(rows))
    mask = np.zeros(shape, dtype=bool)
    mask[rows, cols] = True
    _, boxes = label_by_bbox(mask, 4)
    assert len(boxes) == 1


@FEW
@given(occupancy_grids)
def test_dilate_matches_ndimage(mask):
    assert np.array_equal(dilate(mask), ndimage.binary_dilation(
        mask, structure=STRUCTURES[8]))


@FEW
@given(occupancy_grids)
def test_building_rectangles_partition(cells):
    # every building cell in exactly one rectangle, every free cell in none
    cover = np.zeros(cells.shape, dtype=np.int64)
    for top, bottom, left, right in building_rectangles(cells):
        assert 0 <= top < bottom <= cells.shape[0]
        assert 0 <= left < right <= cells.shape[1]
        cover[top:bottom, left:right] += 1
    assert np.array_equal(cover, cells != 0)


@st.composite
def strided_clips(draw):
    """A random grid, a start anywhere within 4 m of it, on a cell centre or
    on grid lines or neither, and sorted subsets of the row and the column
    indices, up to 3 beyond each border."""
    h, w = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = (rng.random((h, w)) < draw(st.floats(0.0, 0.8))).astype(np.uint8)
    x, y = draw(st.floats(-4.0, w + 4.0)), draw(st.floats(-4.0, h + 4.0))
    snap = draw(st.sampled_from(["centre", "lines", None]))
    if snap == "centre":
        x, y = math.floor(x) + 0.5, math.floor(y) + 0.5
    elif snap == "lines":
        x, y = float(round(x)), float(round(y))
    rows = sorted(draw(st.sets(st.integers(-3, h + 2), min_size=1)))
    cols = sorted(draw(st.sets(st.integers(-3, w + 2), min_size=1)))
    return cells, (x, y), np.array(rows), np.array(cols)


@settings(max_examples=200, deadline=None)
@given(strided_clips())
def test_strided_block_equals_window_block(clip):
    # the rows and columns between the axes' cells change no byte
    cells, start, rows, cols = clip
    rects = building_rectangles(cells)
    block = segment_building_lengths(start, rows, cols, rects, cells.shape)
    window = segment_building_lengths(start, np.arange(rows[0], rows[-1] + 1),
                                      np.arange(cols[0], cols[-1] + 1), rects,
                                      cells.shape)
    at = np.ix_(rows - rows[0], cols - cols[0])
    for strided, full in zip(block, window):
        assert strided.shape == (len(rows), len(cols))
        assert strided.tobytes() == full[at].tobytes()


# square, for the rotations; the seeded uniform bitmaps have many components
square_bitmaps = st.one_of(
    arrays(np.uint8, st.integers(1, 24).map(lambda n: (n, n))),
    st.builds(lambda n, seed: np.random.default_rng(seed).integers(
        0, 256, (n, n), dtype=np.uint8), st.integers(1, 24), st.integers(0, 2**32 - 1)))


@FEW
@given(square_bitmaps, st.sampled_from([4, 8]))
def test_augmentation_equivariance(bitmap, connectivity):
    def run(grid):
        sep = separate_sources(grid, connectivity=connectivity, r=2.0)
        return np.reshape(localize_all(sep, "com").points, (-1, 2))

    n = bitmap.shape[0]
    base = run(bitmap)
    for aug in AUGMENTATIONS:
        got = run(augment_grid(bitmap, aug))
        expected = np.reshape(augment_points(base, aug, n, n), (-1, 2))
        assert got.shape == expected.shape
        dist = np.linalg.norm(got[:, None] - expected[None], axis=2)
        rows, cols = linear_sum_assignment(dist)
        assert (dist[rows, cols] <= 1e-9).all()


# uint8 maps and int64 maps of 0..255; the seeded uniform ones have many
# components
shapes = st.tuples(st.integers(1, 24), st.integers(1, 24))
integer_bitmaps = st.one_of(
    arrays(np.uint8, shapes),
    arrays(np.int64, shapes, elements=st.integers(0, 255)),
    st.builds(lambda shape, dtype, seed: np.random.default_rng(seed).integers(
        0, 256, shape).astype(dtype), shapes, st.sampled_from([np.uint8, np.int64]),
        st.integers(0, 2**32 - 1)))


@FEW
@given(integer_bitmaps, st.integers(0, 254), st.sampled_from([4, 8]))
def test_centroids_match_per_map_formula(bitmap, gamma, connectivity):
    sep = separate_sources(bitmap, gamma, connectivity, r=2.0)
    n = len(sep.labeling.components)
    points = localize_all(sep, "com").points
    assert len(points) == n
    # bit for bit: every weighted sum is exact in float64
    assert points == center_of_mass_per_map(bitmap, sep.labeling.labels, n)
    if n:
        centres = ndimage.center_of_mass(bitmap, sep.labeling.labels, range(1, n + 1))
        expected = [(col + 0.5, row + 0.5) for row, col in centres]
        assert np.allclose(points, expected, rtol=0, atol=1e-12)


@st.composite
def stacked_problems(draw):
    """S value rows on J distinct positions, and queries that span one to three
    evaluation blocks plus part of one, some of them exactly on samples."""
    j = draw(st.integers(2, 700))
    s = draw(st.integers(1, 4))
    rows = _PAIRS_PER_BLOCK // j
    n_query = draw(st.integers(0, 2)) * rows + draw(st.integers(1, rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extent = rng.uniform(20.0, 200.0)
    positions = rng.random((j, 2)) * extent
    values = rng.uniform(-100.0, -30.0, (s, j))
    query = rng.random((n_query, 2)) * extent
    on_sample = rng.choice(n_query, size=min(j, n_query, 20), replace=False)
    query[on_sample] = positions[:len(on_sample)]
    return positions, values, query


@FEW
@given(stacked_problems())
def test_stacked_kriging_equals_single_calls(problem):
    positions, values, query = problem
    stacked = kriging_predict(positions, values, query)
    assert stacked.shape == (len(values), len(query))
    for row, got in zip(values, stacked):
        assert np.array_equal(got, kriging_predict(positions, row.copy(), query))


@FEW
@given(stacked_problems())
def test_stacked_idw_equals_single_calls(problem):
    positions, values, query = problem
    stacked = idw_predict(positions, values, query)
    assert stacked.shape == (len(values), len(query))
    for row, got in zip(values, stacked):
        assert np.array_equal(got, idw_predict(positions, row.copy(), query))


# coordinates that repeat, signed zeros among them
_REPEATED = np.array([0.0, -0.0, 0.5, 1.5, 7.25, 199.5])


@st.composite
def distance_problems(draw):
    """J positions and queries for _squared_distance_blocks: the free cells of
    a grid with buildings, in the row-major order the reconstructors use, or
    scattered queries whose coordinates repeat, numbering one or two blocks
    plus one, minus one or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j = draw(st.integers(1, 700))

    def coordinates(n, share):
        return np.where(rng.random((n, 2)) < share, rng.choice(_REPEATED, (n, 2)),
                        rng.random((n, 2)) * 200.0)

    positions = coordinates(j, 0.2)
    if draw(st.booleans()):
        h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        ii, jj = np.nonzero(rng.random((h, w)) >= draw(st.floats(0.0, 0.5)))
        query = np.column_stack([jj + 0.5, ii + 0.5])
    else:
        rows = _PAIRS_PER_BLOCK // j
        n = max(1, draw(st.integers(1, 2)) * rows + draw(st.integers(-1, 1)))
        query = coordinates(n, draw(st.floats(0.0, 1.0)))
    return positions, query


@FEW
@given(distance_problems())
def test_squared_distance_blocks_equal_broadcast_formula(problem):
    positions, query = problem
    rows = max(1, _PAIRS_PER_BLOCK // len(positions))
    blocks = [(lo, d2.copy()) for lo, d2 in _squared_distance_blocks(positions, query)]
    assert [lo for lo, _ in blocks] == list(range(0, len(query), rows))
    for lo, d2 in blocks:
        q = query[lo:lo + rows]
        want = ((q[:, 0, None] - positions[:, 0]) ** 2
                + (q[:, 1, None] - positions[:, 1]) ** 2)
        assert d2.tobytes() == want.tobytes()
