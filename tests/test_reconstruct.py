import math

import numpy as np
import pytest

from rssloc import (LOCAL_MAPS, P_MIN_DBM, BuildingLayout, PipelineConfig,
                    ReconstructionError, SampleSet, idw_reconstruct, kriging_reconstruct, load_scenario,
                    proxy_local_map, rasterize_global, read_dataset_index)
from rssloc import reconstruct
from rssloc.reconstruct import (_PAIRS_PER_BLOCK, _SOLVE_COLUMNS, _kriging_matrix,
                                idw_predict, kriging_predict)

from conftest import make_flat_scenario
from oracles import (RANGE_M, SILL, idw_predict_hypot, kriging_matrix_hypot,
                     kriging_predict_hypot, kriging_weights, proxy_local_map_disk_cells)


def sample_set(positions, values):
    return SampleSet(positions=np.asarray(positions, float),
                     values=np.asarray(values, float))


class TestIdw:
    def test_exact_at_sample(self):
        pos = np.array([(3.0, 4.0), (10.0, 2.0), (7.0, 9.0)])
        vals = np.array([-50.0, -60.0, -70.0])
        out = idw_predict(pos, vals, pos)
        assert np.array_equal(out, vals)

    def test_single_sample_constant_field(self, flat_layout):
        ss = sample_set([(20.3, 20.7)], [-55.0])
        rec, = idw_reconstruct(ss, flat_layout)
        free = flat_layout.cells == 0
        assert np.allclose(rec.values[free], -55.0)

    def test_equidistant_average(self):
        pos = np.array([(0.0, 0.0), (10.0, 0.0)])
        vals = np.array([-50.0, -70.0])
        out = idw_predict(pos, vals, np.array([(5.0, 0.0)]))
        assert out[0] == pytest.approx(-60.0)

    def test_respects_data_range(self, flat_layout):
        rng = np.random.default_rng(41)
        ss = sample_set(rng.random((20, 2)) * 60, rng.uniform(-90, -30, 20))
        rec, = idw_reconstruct(ss, flat_layout)
        free = flat_layout.cells == 0
        assert rec.values[free].min() >= ss.values.min() - 1e-9
        assert rec.values[free].max() <= ss.values.max() + 1e-9


class TestKriging:
    def test_exact_at_samples_with_zero_nugget(self):
        rng = np.random.default_rng(42)
        pos = rng.random((12, 2)) * 80
        vals = rng.uniform(-90, -30, 12)
        out = kriging_predict(pos, vals, pos)
        assert np.allclose(out, vals, atol=1e-9)

    def test_two_equal_samples_constant_field(self):
        pos = np.array([(10.0, 10.0), (40.0, 40.0)])
        vals = np.array([-62.0, -62.0])
        query = np.array([(5.0, 30.0), (25.0, 25.0), (55.0, 3.0)])
        out = kriging_predict(pos, vals, query)
        assert np.allclose(out, -62.0, atol=1e-9)

    def test_weights_match_dense_solve(self):
        # the primal oracle, through oracles.exponential_variogram, against
        # the system assembled here from the exponential formula
        rng = np.random.default_rng(43)
        for _ in range(20):
            pos = rng.random((3, 2)) * 50
            query = rng.random(2) * 50
            w, mu = kriging_weights(pos, query)

            d = np.hypot(pos[:, None, 0] - pos[None, :, 0],
                         pos[:, None, 1] - pos[None, :, 1])
            gamma = np.where(d <= 0, 0.0, SILL * (1 - np.exp(-3 * d / RANGE_M)))
            k = np.zeros((4, 4))
            k[:3, :3] = gamma
            k[:3, 3] = k[3, :3] = 1.0
            dq = np.hypot(pos[:, 0] - query[0], pos[:, 1] - query[1])
            rhs = np.append(np.where(dq <= 0, 0.0, SILL * (1 - np.exp(-3 * dq / RANGE_M))),
                            1.0)
            expected = np.linalg.solve(k, rhs)
            assert np.allclose(w, expected[:3], atol=1e-9)
            assert mu == pytest.approx(expected[3], abs=1e-9)

    def test_dual_prediction_matches_weights(self):
        rng = np.random.default_rng(44)
        pos = rng.random((6, 2)) * 50
        vals = rng.uniform(-80, -40, 6)
        query = rng.random((5, 2)) * 50
        dual = kriging_predict(pos, vals, query)
        primal = [float(kriging_weights(pos, q)[0] @ vals)
                  for q in query]
        assert np.allclose(dual, primal, atol=1e-9)

    def test_duplicate_positions_rejected(self, flat_layout):
        ss = sample_set([(5.0, 5.0), (5.0, 5.0), (9.0, 9.0)], [-50, -52, -60])
        with pytest.raises(ReconstructionError, match="duplicate sample positions"):
            kriging_reconstruct(ss, flat_layout)
        # apart in the list, and -0.0 equal to 0.0
        pos = np.array([(0.0, 5.0), (9.0, 9.0), (-0.0, 5.0)])
        with pytest.raises(ReconstructionError, match="duplicate sample positions"):
            kriging_predict(pos, np.array([-50.0, -52.0, -60.0]), np.zeros((1, 2)))

    def test_single_sample_rejected(self, flat_layout):
        ss = sample_set([(5.0, 5.0)], [-50.0])
        with pytest.raises(ReconstructionError):
            kriging_reconstruct(ss, flat_layout)


def random_problem(seed, j):
    """j distinct samples and a query set that spans several evaluation
    blocks, ends partway through one and puts some queries on samples."""
    rng = np.random.default_rng(seed)
    extent = rng.uniform(20.0, 200.0)
    pos = rng.random((j, 2)) * extent
    vals = rng.uniform(-100.0, -30.0, j)
    rows = _PAIRS_PER_BLOCK // j
    n_query = int(rng.integers(2, 4)) * rows + int(rng.integers(1, rows))
    query = rng.random((n_query, 2)) * extent
    on_sample = rng.choice(n_query, size=min(j, 20), replace=False)
    query[on_sample] = pos[:len(on_sample)]
    return rng, pos, vals, query, on_sample


class TestAgainstHypotOracle:
    """The block evaluation from squared distances against the chunked
    hypot form it replaced."""

    @pytest.mark.parametrize("j", [2, 7, 150, 600])
    def test_kriging(self, j):
        _, pos, vals, query, _ = random_problem(1000 + j, j)
        got = kriging_predict(pos, vals, query)
        want = kriging_predict_hypot(pos, vals, query)
        assert np.max(np.abs(got - want)) <= 1e-9

    @pytest.mark.parametrize("j", [2, 7, 150, 600])
    def test_kriging_matrix(self, j):
        # sqrt of a sum of squares against hypot: a few ulp of gamma's largest
        # value, the sill
        _, pos, _, _, _ = random_problem(3000 + j, j)
        got = _kriging_matrix(pos)
        want = kriging_matrix_hypot(pos)
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * SILL
        assert np.array_equal(got[-1], want[-1]) and np.array_equal(got[:, -1], want[:, -1])
        assert not np.diagonal(got).any()

    @pytest.mark.parametrize("pairs", [_PAIRS_PER_BLOCK, 1000, 7])
    def test_kriging_matrix_blocks_bit_equal(self, pairs, monkeypatch):
        # rows come from _squared_distance_blocks; any block size gives the
        # whole-matrix expression, bit for bit
        _, pos, _, _, _ = random_problem(4000, 151)
        monkeypatch.setattr(reconstruct, "_PAIRS_PER_BLOCK", pairs)
        got = _kriging_matrix(pos)
        dx = pos[:, 0, None] - pos[:, 0]
        dy = pos[:, 1, None] - pos[:, 1]
        gamma = SILL * (1.0 - np.exp(-3.0 * np.sqrt(dx * dx + dy * dy) / RANGE_M))
        np.fill_diagonal(gamma, 0.0)
        assert np.array_equal(got[:-1, :-1], gamma)

    @pytest.mark.parametrize("j", [2, 40, 283])
    def test_stacked_row_at_every_chunk_position(self, j):
        # the rows share one LU, solved _SOLVE_COLUMNS at a time: at any place
        # in a full or a partial chunk, among random rows, a row gets the
        # bytes of a one-row call. That a column's solution does not depend
        # on the others is true of OpenBLAS's solve, not promised by LAPACK.
        rng, pos, row, query, _ = random_problem(5000 + j, j)
        want = kriging_predict(pos, row, query)
        for s in (_SOLVE_COLUMNS, 2 * _SOLVE_COLUMNS - 5):
            for at in range(s - _SOLVE_COLUMNS, s):
                values = rng.uniform(-100.0, -30.0, (s, j))
                values[at] = row
                assert np.array_equal(kriging_predict(pos, values, query)[at], want)

    @pytest.mark.parametrize("j", [2, 7, 150, 600])
    def test_idw(self, j):
        _, pos, vals, query, on_sample = random_problem(2000 + j, j)
        got = idw_predict(pos, vals, query)
        assert np.max(np.abs(got - idw_predict_hypot(pos, vals, query))) <= 1e-12
        assert np.array_equal(got[on_sample], vals[:len(on_sample)])


@pytest.mark.parametrize("reconstruct, predict", [
    (kriging_reconstruct, kriging_predict), (idw_reconstruct, idw_predict)])
def test_reconstruct_predicts_free_cells_only(reconstruct, predict):
    rng = np.random.default_rng(47)
    cells = np.zeros((30, 40), dtype=np.uint8)
    cells[5:12, 8:20] = 1
    cells[20:28, 25:31] = 1
    layout = BuildingLayout(cells)
    # three scenarios on one route: one map per value row
    ss = sample_set(rng.random((60, 2)) * (40, 30), rng.uniform(-90, -30, (3, 60)))
    recs = reconstruct(ss, layout)
    free_centers = [(j + 0.5, i + 0.5) for i in range(30) for j in range(40)
                    if cells[i, j] == 0]
    assert len(recs) == 3
    for rec, values in zip(recs, ss.values):
        assert np.all(rec.values[cells != 0] == P_MIN_DBM)
        want = predict(ss.positions, values, np.array(free_centers))
        assert np.array_equal(rec.values[cells == 0], want)


class TestPredictorInputs:
    def test_idw_rejects_no_samples(self):
        with pytest.raises(ValueError, match="at least one sample"):
            idw_predict(np.empty((0, 2)), np.empty(0), np.zeros((3, 2)))

    def test_idw_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="3 sample positions but 2 values"):
            idw_predict(np.zeros((3, 2)), np.zeros(2), np.ones((4, 2)))

    def test_kriging_rejects_length_mismatch(self):
        pos = np.array([(0.0, 0.0), (5.0, 0.0), (0.0, 5.0)])
        with pytest.raises(ReconstructionError,
                           match="3 sample positions but 4 values"):
            kriging_predict(pos, np.zeros(4), np.ones((4, 2)))


class TestProxyLocalMap:
    def test_single_source_kept_region_bounds(self, params):
        # kept radius for delta = 9 dB is 10^(9/30) = 1.9953 m; the kept
        # region must cover that disk and stay inside the 2r disk
        sc = make_flat_scenario([(30.5, 30.5)])
        dense = rasterize_global(sc, params)
        local = proxy_local_map(dense, 9.0, r=2.0)
        kept = local.values > 0
        jj, ii = np.meshgrid(np.arange(60), np.arange(60))
        d = np.hypot(jj + 0.5 - 30.5, ii + 0.5 - 30.5)
        inner = d <= 1.9952623149688795 - 1e-9
        outer = d <= 4.0
        assert np.all(kept[inner])
        assert not np.any(kept & ~outer)

    def test_constant_field_rejected(self):
        from rssloc import RadioMap
        flat = RadioMap(np.full((30, 30), -60.0))
        with pytest.raises(ValueError):
            proxy_local_map(flat, r=2.0)

    def test_two_separated_sources_two_regions(self, params):
        sc = make_flat_scenario([(15.5, 30.5), (45.5, 30.5)])
        dense = rasterize_global(sc, params)
        local = proxy_local_map(dense, 9.0, r=2.0)
        from rssloc import separate_sources
        result = separate_sources(local, r=2.0)
        assert len(result.labeling.components) == 2

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_r(self, params, r):
        dense = rasterize_global(make_flat_scenario([(30.5, 30.5)]), params)
        with pytest.raises(ValueError, match="r must be positive"):
            proxy_local_map(dense, 9.0, r=r)

    @pytest.mark.parametrize("r", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("at", [(0, 0), (0, 36), (30, 0), (30, 36),
                                    (0, 17), (30, 17), (15, 0), (15, 36)])
    def test_disk_stencil_matches_disk_cells(self, r, at):
        # the first peak at a corner or an edge of the grid, the next ones
        # anywhere: the clipped stencil keeps what disk_cells selects
        from rssloc import RadioMap
        rng = np.random.default_rng(at[0] * 100 + at[1])
        vals = rng.uniform(-60.0, -41.0, (31, 37))
        vals[at] = -40.0
        local = proxy_local_map(RadioMap(vals), 9.0, r=r)
        keep = proxy_local_map_disk_cells(vals, 9.0, r)
        assert keep[at] and not keep.all()
        assert np.array_equal(local.values > 0, keep)

    def test_deterministic(self, params):
        sc = make_flat_scenario([(15.5, 30.5), (45.5, 30.5)])
        dense = rasterize_global(sc, params)
        a = proxy_local_map(dense, 9.0, r=2.0)
        b = proxy_local_map(dense, 9.0, r=2.0)
        assert np.array_equal(a.values, b.values)


class TestRegistry:
    def test_names(self):
        assert list(LOCAL_MAPS) == ["oracle", "idw", "kriging"]

    def test_interface_roundtrip(self, dataset):
        # every constructor gives each entry of a layout group a local bitmap
        # of the layout's shape
        _, _, out = dataset
        entries = read_dataset_index(out)["entries"]
        for layout in {entry["layout"] for entry in entries}:
            group = [entry for entry in entries if entry["layout"] == layout]
            scenarios = [load_scenario(out, entry) for entry in group]
            for name, local_map in LOCAL_MAPS.items():
                config = PipelineConfig(reconstructor=name)
                recs = local_map(out, group, "4", scenarios, config, 2.0)
                assert len(recs) == len(group)
                for rec, scenario in zip(recs, scenarios):
                    assert rec.values.shape == scenario.layout.cells.shape
                    assert rec.values.dtype == np.uint8


def test_reconstruction_rmse_improves_with_density(params):
    # lighter version of the sampling-density trend checked fully in acceptance
    sc = make_flat_scenario([(20.5, 20.5), (42.5, 40.5)], size=64)
    g = rasterize_global(sc, params)
    rng = np.random.default_rng(46)
    free = sc.layout.cells == 0
    rmses = []
    for n in (400, 50):
        pos = rng.random((n, 2)) * 64
        vals = np.array([g.values[int(y), int(x)] for x, y in pos])
        rec, = kriging_reconstruct(sample_set(pos, vals), sc.layout)
        rmses.append(float(np.sqrt(np.mean((rec.values[free] - g.values[free]) ** 2))))
    assert rmses[0] < rmses[1]
