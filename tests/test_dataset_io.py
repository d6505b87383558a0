import dataclasses
import json
import math

import numpy as np
import pytest

from rssloc import (BuildingLayout, DatasetConfig, LrmfError,
                    PgmError, PropagationParams, SampleSet, Scenario, Source,
                    add_noise, build_routes, dataset_io, decode_lrmf, decode_pgm,
                    encode_lrmf, encode_pgm, generate_dataset, ground_truth_local,
                    load_scenario, rasterize_global, read_dataset_index,
                    read_pgm, sample_along)
from rssloc.dataset_io import (_csv_lines, _csv_rows, _derived_seed,
                               predictions_from_csv, predictions_to_csv,
                               samples_from_csv, samples_to_csv)

from conftest import generate_scenario, tree_digests
from oracles import (AUGMENTATIONS, augment_grid, augment_points,
                     samples_to_csv_lines)


class TestPgm:
    def test_golden_bytes(self):
        # hand-constructed golden file: 11 header bytes + 4 raster bytes
        grid = np.array([[0, 255], [127, 128]], dtype=np.uint8)
        assert encode_pgm(grid) == b"P5\n2 2\n255\n\x00\xff\x7f\x80"

    def test_roundtrip_8bit(self):
        rng = np.random.default_rng(51)
        grid = rng.integers(0, 256, (17, 11)).astype(np.uint8)
        assert np.array_equal(decode_pgm(encode_pgm(grid)), grid)

    def test_sixteen_bit_rejected(self, tmp_path):
        grid = np.zeros((2, 3), dtype=np.uint16)
        with pytest.raises(ValueError, match="uint8"):
            encode_pgm(grid)
        path = tmp_path / "wide.pgm"
        path.write_bytes(b"P5\n3 2\n65535\n" + grid.astype(">u2").tobytes())
        with pytest.raises(PgmError, match="unsupported maxval 65535"):
            decode_pgm(path.read_bytes())
        with pytest.raises(PgmError, match=f"^{path}: unsupported maxval 65535"):
            read_pgm(path)

    def test_truncated_raster_error_names_counts(self):
        data = encode_pgm(np.zeros((4, 4), dtype=np.uint8))[:-3]
        with pytest.raises(PgmError, match="expected 16 bytes, found 13"):
            decode_pgm(data)

    def test_bad_magic_offset(self):
        with pytest.raises(PgmError, match="byte 0"):
            decode_pgm(b"P6\n2 2\n255\n" + b"\x00" * 4)

    def test_bad_integer_token(self):
        with pytest.raises(PgmError, match="width"):
            decode_pgm(b"P5\nxx 2\n255\n" + b"\x00" * 4)

    def test_unsupported_maxval(self):
        with pytest.raises(PgmError, match="maxval"):
            decode_pgm(b"P5\n2 2\n100\n" + b"\x00" * 4)

    def test_comment_skipping(self):
        data = b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4])
        grid = decode_pgm(data)
        assert np.array_equal(grid, np.array([[1, 2], [3, 4]], dtype=np.uint8))

    def test_file_roundtrip(self, tmp_path):
        grid = np.arange(12, dtype=np.uint8).reshape(3, 4)
        (tmp_path / "g.pgm").write_bytes(encode_pgm(grid))
        assert np.array_equal(read_pgm(tmp_path / "g.pgm"), grid)


class TestLrmf:
    def test_roundtrip(self):
        rng = np.random.default_rng(53)
        grid = rng.normal(-60, 20, (21, 33)).astype(np.float32)
        assert np.array_equal(decode_lrmf(encode_lrmf(grid)), grid)

    def test_magic(self):
        assert encode_lrmf(np.zeros((2, 2), dtype=np.float32))[:4] == b"LRMF"

    def test_bad_magic(self):
        with pytest.raises(LrmfError, match="magic"):
            decode_lrmf(b"NOPE" + b"\x00" * 20)

    def test_size_mismatch(self):
        data = encode_lrmf(np.zeros((3, 3), dtype=np.float32))[:-4]
        with pytest.raises(LrmfError, match="expected 36 bytes, found 32"):
            decode_lrmf(data)


class TestCsv:
    def test_samples_roundtrip_six_decimals(self):
        ss = SampleSet(positions=[(1.23456789, 2.3456789)], values=[-61.5432109])
        text = samples_to_csv(ss)
        assert text.splitlines()[0] == "x_m,y_m,rss_dbm"
        assert text.splitlines()[1] == "1.234568,2.345679,-61.543211"
        back = samples_from_csv(text)
        assert back.positions[0][0] == pytest.approx(1.234568)

    def test_samples_bytes_match_per_line_format(self):
        # signed zeros, ties at the sixth decimal (0.0078125 = 2**-7 is one
        # exactly), values just either side of a tie and large magnitudes
        x = [0.0, -0.0, -1e-9, 0.0078125, -0.0234375, 0.0000005, 1.0000005,
             2.4999995, 1e6, -1e6 - 0.5, 123456789.1234565, 1e15, -3.5e17]
        values = [-0.0, 0.0, 0.0078125, -0.0234375, 1e6 + 0.0000005, -61.5432105,
                  -110.0, 5e-7, 1e300, -1e-300, 9999999.9999995, 2.0 ** 40, 0.1]
        rng = np.random.default_rng(56)
        positions = np.column_stack([x, x[::-1]])
        for ss in (SampleSet(positions=positions, values=values),
                   SampleSet(positions=[(2.5, 7.5)], values=[-60.0]),
                   SampleSet(positions=rng.random((300, 2)) * 200,
                             values=rng.normal(-70.0, 20.0, 300))):
            assert samples_to_csv(ss).encode() == samples_to_csv_lines(ss).encode()

    def test_predictions_roundtrip(self):
        text = predictions_to_csv([1, 2], [(3.5, 4.5), (9.25, 0.5)], [False, True])
        ids, pts, flags = predictions_from_csv(text)
        assert ids == [1, 2]
        assert flags == [False, True]
        assert pts[1] == (9.25, 0.5)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            samples_from_csv("a,b,c\n1,2,3")

    @pytest.mark.parametrize("row,message", [
        ("1.5,2.5", "line 3: expected 3 fields, found 2"),
        ("1.5,2.5,-60,7", "line 3: expected 3 fields, found 4"),
        # 2 + 4 fields are 6 = 2 * 3 values, but no row of 3
        ("1.5,2.5\n1.5,2.5,-60,7", "line 3: expected 3 fields, found 2"),
        ("1.5,north,-60", "line 3: non-numeric field in '1.5,north,-60'"),
        ("nan,nan,-50.0", "line 3: non-finite field in 'nan,nan,-50.0'"),
        ("1.5,2.5,-inf", "line 3: non-finite field in '1.5,2.5,-inf'"),
    ])
    def test_malformed_sample_row_names_line(self, row, message):
        text = f"x_m,y_m,rss_dbm\n1.0,2.0,-50.0\n{row}\n"
        with pytest.raises(ValueError, match=f"^{message}$"):
            samples_from_csv(text)

    @pytest.mark.parametrize("text", [
        "x_m,y_m,rss_dbm\n1.0,2.0,-50.0\n3.0,4.0,nan\n",
        "x_m,y_m,rss_dbm\n1.0,inf,-50.0\n",
        "x_m,y_m,rss_dbm\n\n1.0,2.0,-50.0\n   \n3.0,4.0,-60.0\n\n",
        "x_m,y_m,rss_dbm\r\n1.0,2.0,-50.0\r\n3.0,4.0,-60.0\r\n",
        "  x_m,y_m,rss_dbm  \n1.0, 2.0 ,-50.0\n",
        "x_m, y_m, rss_dbm\n1.0,2.0,-50.0\n",
        "x_m,y_m,rss_dbm\n1_0,2.0,-5_0.25\n",
        "x_m,y_m,rss_dbm\n1.0,2.0\n3.0,4.0,-60.0,7\n",
        "x_m,y_m,rss_dbm\n1.0,2.0,-50.0\n3.0,north,-60.0\n",
        "x_m,y_m,rss_dbm\n",
    ])
    def test_samples_fast_path_agrees_with_field_parse(self, text):
        # samples_from_csv parses with numpy and words its errors with
        # _csv_rows: both give the same values or the same message
        try:
            want = np.array(_csv_rows(_csv_lines(text, "x_m,y_m,rss_dbm"),
                                      (float, float, float))).reshape(-1, 3)
            want = SampleSet(positions=want[:, :2], values=want[:, 2])
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                samples_from_csv(text)
            assert str(got.value) == str(exc)
            return
        got = samples_from_csv(text)
        assert got.positions.tobytes() == want.positions.tobytes()
        assert got.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("row,message", [
        ("1,3.5,4.5", "line 4: expected 4 fields, found 3"),
        ("1,3.5,4.5,yes", "line 4: non-numeric field in '1,3.5,4.5,yes'"),
        ("1,nan,4.5,0", "line 4: non-finite field in '1,nan,4.5,0'"),
        ("1,3.5,inf,0", "line 4: non-finite field in '1,3.5,inf,0'"),
    ])
    def test_malformed_prediction_row_names_line(self, row, message):
        # the blank line still counts towards the line number
        text = f"component_id,x_m,y_m,flagged\n0,1.0,2.0,0\n\n{row}\n"
        with pytest.raises(ValueError, match=f"^{message}$"):
            predictions_from_csv(text)


class TestAugmentation:
    def test_rot90_four_times_identity(self):
        rng = np.random.default_rng(54)
        grid = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        pts = [(3.2, 7.9), (12.0, 1.5)]
        g, p = grid, pts
        for _ in range(4):
            g, p = augment_grid(g, "rot90"), augment_points(p, "rot90", 16, 16)
        assert np.array_equal(g, grid)
        for (x, y), (x0, y0) in zip(p, pts):
            assert x == pytest.approx(x0) and y == pytest.approx(y0)

    def test_flip_h_twice_identity(self):
        rng = np.random.default_rng(55)
        grid = rng.integers(0, 256, (8, 12)).astype(np.uint8)
        pts = [(3.25, 7.75)]
        g = augment_grid(augment_grid(grid, "flip_h"), "flip_h")
        p = augment_points(augment_points(pts, "flip_h", 12, 8), "flip_h", 12, 8)
        assert np.array_equal(g, grid)
        assert p[0] == (pytest.approx(3.25), pytest.approx(7.75))

    def test_rotation_needs_square(self):
        with pytest.raises(ValueError):
            augment_grid(np.zeros((4, 6), dtype=np.uint8), "rot90")

    def test_unknown_augmentation(self):
        with pytest.raises(ValueError):
            augment_grid(np.zeros((4, 4), dtype=np.uint8), "transpose")

    def test_unknown_augmentation_for_points(self):
        with pytest.raises(ValueError, match="unknown augmentation 'transpose'"):
            augment_points([(1.0, 2.0)], "transpose", 4, 4)

    def test_names_and_copies(self):
        assert AUGMENTATIONS == ("identity", "flip_h", "flip_v", "rot90",
                                 "rot180", "rot270")
        grid = np.arange(16, dtype=np.uint8).reshape(4, 4)
        for aug in AUGMENTATIONS:
            out = augment_grid(grid, aug)
            assert out.flags.owndata and not np.shares_memory(out, grid)

    def test_group_composition_table(self):
        # rot90 twice is rot180; flips compose to rot180
        rng = np.random.default_rng(56)
        grid = rng.integers(0, 256, (10, 10)).astype(np.uint8)
        a = augment_grid(augment_grid(grid, "rot90"), "rot90")
        assert np.array_equal(a, augment_grid(grid, "rot180"))
        b = augment_grid(augment_grid(grid, "flip_h"), "flip_v")
        assert np.array_equal(b, augment_grid(grid, "rot180"))

    @pytest.mark.parametrize("aug", AUGMENTATIONS)
    def test_local_map_consistency(self, aug, params):
        # transformed ground truth equals ground truth of the transformed
        # scenario, pixel for pixel
        for k in range(4):
            sc = generate_scenario(80, 80, 3, 3, seed=600 + k)
            base = ground_truth_local(sc, params, 2.0)
            transformed = augment_grid(base.values, aug)
            cells = augment_grid(sc.layout.cells, aug)
            points = augment_points(sc.true_points(), aug, 80, 80)
            moved = Scenario(layout=BuildingLayout(cells), id=sc.id,
                             rng_seed=sc.rng_seed,
                             sources=[Source(x, y, s.tx_power_dbm, s.gain_dbi)
                                      for (x, y), s in zip(points, sc.sources)])
            regenerated = ground_truth_local(moved, params, 2.0)
            assert np.array_equal(transformed, regenerated.values)

    def test_point_cell_consistency(self):
        # the transformed point lands in the transformed cell
        rng = np.random.default_rng(57)
        w = h = 20
        for aug in AUGMENTATIONS:
            for _ in range(50):
                x, y = rng.uniform(0.01, 19.99, 2)
                grid = np.zeros((h, w), dtype=np.uint8)
                grid[int(y), int(x)] = 1
                g2 = augment_grid(grid, aug)
                (pt,) = augment_points([(x, y)], aug, w, h)
                assert g2[int(pt[1]), int(pt[0])] == 1


class TestGenerateDataset:
    def config(self, seed=77):
        return DatasetConfig(width=100, height=100, n_layouts=2, n_buildings=3,
                             source_counts=(1, 3), placements_per_count=2,
                             intervals=(4, 10), seed=seed,
                             split={"train": 1, "val": 0, "test": 1})

    def test_counts(self, tmp_path):
        index = generate_dataset(self.config(), tmp_path / "ds")
        assert len(index["entries"]) == 8
        sample_files = list((tmp_path / "ds" / "samples").rglob("*.csv"))
        assert len(sample_files) == 16  # 8 scenarios x 2 intervals

    def test_regeneration_byte_identical(self, tmp_path):
        generate_dataset(self.config(), tmp_path / "a")
        generate_dataset(self.config(), tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    def test_layout_written_before_next_layout_starts(self, tmp_path, monkeypatch):
        # memory holds one layout's files: layout 0's are on disk when layout 1
        # is routed, and index.json is not yet
        config, out = self.config(), tmp_path / "ds"
        layout0 = ["layouts/l00.pgm"] + [
            f"{folder}/l00m{m:02d}p{pi:02d}.{ext}"
            for m in config.source_counts for pi in range(config.placements_per_count)
            for folder, ext in [("scenarios", "json"), ("maps/global", "lrmf"),
                                ("maps/local", "pgm"),
                                *((f"samples/{t}", "csv") for t in config.intervals)]]
        routed = []

        def build_routes_after_layout_0(layout):
            if routed:
                assert [rel for rel in layout0 if not (out / rel).is_file()] == []
                assert not (out / "index.json").exists()
            routed.append(layout)
            return build_routes(layout)

        monkeypatch.setattr(dataset_io, "build_routes", build_routes_after_layout_0)
        generate_dataset(config, out)
        assert len(routed) == 2 and len(layout0) == 21

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    def test_interrupt_leaves_out_as_it_was(self, existing, tmp_path, monkeypatch):
        # any exception, KeyboardInterrupt too, takes the run's files with it
        out = tmp_path / "a" / "ds"
        if existing:
            generate_dataset(self.config(seed=5), out)
        before = tree_digests(tmp_path)
        routed = []

        def interrupted_at_layout_1(layout):
            if routed:
                raise KeyboardInterrupt
            routed.append(layout)
            return build_routes(layout)

        monkeypatch.setattr(dataset_io, "build_routes", interrupted_at_layout_1)
        with pytest.raises(KeyboardInterrupt):
            generate_dataset(self.config(), out)
        assert tree_digests(tmp_path) == before

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_out_not_a_directory_before_any_work(self, under, tmp_path, monkeypatch):
        rasterized = []
        monkeypatch.setattr(dataset_io, "rasterize_global",
                            lambda *args: rasterized.append(args))
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "a" / "ds" if under else blocker
        with pytest.raises(NotADirectoryError) as excinfo:
            generate_dataset(self.config(), out)
        assert str(excinfo.value) == f"--out {out}: {blocker} is not a directory"
        assert rasterized == []
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert blocker.read_text() == "kept"

    def test_different_seed_different_bytes(self, tmp_path):
        generate_dataset(self.config(seed=77), tmp_path / "a")
        generate_dataset(self.config(seed=78), tmp_path / "b")
        diff = (tmp_path / "a" / "maps" / "local").iterdir()
        changed = any((tmp_path / "a" / "maps" / "local" / p.name).read_bytes()
                      != (tmp_path / "b" / "maps" / "local" / p.name).read_bytes()
                      for p in diff)
        assert changed

    def test_dense_pair_placed_at_spacing(self, tmp_path):
        config = DatasetConfig(width=100, height=100, n_layouts=1, n_buildings=3,
                               source_counts=(2, 3), placements_per_count=1,
                               intervals=(10,), seed=5, dense_pair_spacing=3.0,
                               split={"train": 1, "val": 0, "test": 0})
        index = generate_dataset(config, tmp_path / "ds")
        assert [entry["m"] for entry in index["entries"]] == [2, 3]
        for entry in index["entries"]:
            sc = load_scenario(tmp_path / "ds", entry)
            assert sc.m == entry["m"]
            a, b = sc.sources[:2]
            assert math.hypot(a.x - b.x, a.y - b.y) == pytest.approx(3.0, abs=1e-9)

    def test_noisy_samples_are_add_noise_of_exact_samples(self, tmp_path):
        # generate's noise is add_noise over the noise-free samples, one
        # derived seed per (layout, source count, placement, interval)
        config = dataclasses.replace(self.config(), noise_sigma=2.0)
        index = generate_dataset(config, tmp_path / "ds")
        params = PropagationParams()
        for entry in index["entries"]:
            sc = load_scenario(tmp_path / "ds", entry)
            li, pi = int(entry["id"][1:3]), int(entry["id"][-2:])
            route, g = build_routes(sc.layout), rasterize_global(sc, params)
            for ki, interval in enumerate(config.intervals):
                seed = _derived_seed(config.seed, 3, li, entry["m"], pi, ki)
                exact = sample_along(route, g, interval, config.speed)
                expected = samples_to_csv(add_noise(exact, 2.0, seed))
                path = tmp_path / "ds" / entry["samples"][str(interval)]
                assert path.read_text() == expected
                assert expected != samples_to_csv(exact)

    def test_split_layouts_disjoint(self, tmp_path):
        index = generate_dataset(self.config(), tmp_path / "ds")
        by_split = {}
        for entry in index["entries"]:
            by_split.setdefault(entry["split"], set()).add(entry["layout"])
        assert by_split["train"].isdisjoint(by_split["test"])

    def test_split_must_sum(self):
        with pytest.raises(ValueError):
            DatasetConfig(n_layouts=3, split={"train": 1, "val": 0, "test": 1})

    def test_loadable_scenarios(self, tmp_path):
        generate_dataset(self.config(), tmp_path / "ds")
        index = read_dataset_index(tmp_path / "ds")
        entry = index["entries"][0]
        sc = load_scenario(tmp_path / "ds", entry)
        assert sc.m == entry["m"]
        assert sc.layout.width == 100

    def test_config_dict_round_trips_through_json(self):
        config = self.config()
        doc = json.loads(json.dumps(config.to_dict()))
        assert doc["source_counts"] == [1, 3] and doc["intervals"] == [4, 10]
        assert DatasetConfig.from_dict(doc) == config

    @pytest.mark.parametrize("doc,kind", [("abc", "a string"), ([1, 2], "an array"),
                                          (5, "a number"), (None, "null"),
                                          (True, "a boolean")])
    def test_config_not_an_object_rejected(self, doc, kind):
        with pytest.raises(ValueError,
                           match=f"^config must be a JSON object, not {kind}$"):
            DatasetConfig.from_dict(doc)

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            DatasetConfig.from_dict({"widht": 100})

    @pytest.mark.parametrize("doc,message", [
        ({"r": 0}, "r must be positive"),
        ({"r": -1.0}, "r must be positive"),
        ({"speed": 0}, "speed must be positive"),
        ({"noise_sigma": -1}, "noise_sigma must be >= 0"),
        ({"intervals": []}, "intervals must not be empty"),
        ({"intervals": [0]}, "intervals must be positive"),
        ({"intervals": [4, -2]}, "intervals must be positive"),
        ({"intervals": [1, 1]}, "intervals must not repeat"),
        ({"intervals": [math.inf]}, "intervals must be positive finite numbers, not inf"),
        ({"intervals": [math.nan]}, "intervals must be positive finite numbers, not nan"),
        ({"intervals": [True, 2]},
         "intervals must be positive finite numbers, not True"),
        ({"intervals": ["4"]}, "intervals must be positive finite numbers, not '4'"),
        ({"intervals": [None]}, "intervals must be positive finite numbers, not None"),
        ({"source_counts": [1, 0]}, r"source counts must be in 1\.\.16, not 0"),
        ({"source_counts": [17]}, r"source counts must be in 1\.\.16, not 17"),
        ({"source_counts": [1, 3], "dense_pair_spacing": 3.0},
         "dense_pair_spacing needs source counts >= 2"),
        ({"source_counts": [2], "dense_pair_spacing": 4.0},
         r"dense_pair_spacing must be in \(0, 4\), not 4.0"),
        ({"source_counts": [2], "dense_pair_spacing": 0.0},
         r"dense_pair_spacing must be in \(0, 4\), not 0.0"),
        ({"source_counts": [2], "dense_pair_spacing": -1.0},
         r"dense_pair_spacing must be in \(0, 4\), not -1.0"),
        # the pair's limit is 2 * clear_radius, whatever r is
        ({"source_counts": [2], "clear_radius": 1.0, "r": 3.0,
          "dense_pair_spacing": 2.5}, r"dense_pair_spacing must be in \(0, 2\)"),
        ({"source_counts": [2], "clear_radius": None, "r": 1.0,
          "dense_pair_spacing": 1.5}, "dense_pair_spacing needs a clear_radius"),
        ({"r": math.inf}, "r must be positive and finite, not inf"),
        ({"speed": math.inf}, "speed must be positive and finite, not inf"),
        ({"noise_sigma": math.inf}, "noise_sigma must be >= 0 and finite, not inf"),
        ({"min_spacing": math.nan}, "min_spacing must be a finite number, not nan"),
        ({"clear_radius": math.inf},
         "clear_radius must be a finite number or null, not inf"),
        ({"clear_radius": 0.0}, "clear_radius must be > 0 or null, not 0.0"),
        ({"clear_radius": -1.0}, "clear_radius must be > 0 or null, not -1.0"),
        ({"source_counts": [2], "clear_radius": -1.0, "dense_pair_spacing": 1.0},
         "clear_radius must be > 0 or null, not -1.0"),
        ({"source_counts": [3, 1, 3]}, "^source_counts must not repeat$"),
    ])
    def test_bad_config_value_rejected(self, doc, message):
        with pytest.raises(ValueError, match=message):
            DatasetConfig.from_dict(doc)
