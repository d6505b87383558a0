import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rssloc import PipelineConfig, cli, dataset_io, encode_pgm, pipeline, read_pgm
from rssloc.dataset_io import predictions_to_csv, read_dataset_index
from rssloc.render import encode_ppm, render_map
from rssloc.scenario import GenerationError

from conftest import tree_digests


class TestGenerate:
    def test_dataset_structure(self, dataset):
        _, _, out = dataset
        index = read_dataset_index(out)
        assert len(index["entries"]) == 4
        for sub in ("layouts", "scenarios", "maps/global", "maps/local", "samples"):
            assert (out / sub).exists()

    def test_missing_config_no_partial_output(self, tmp_path):
        out = tmp_path / "never"
        code = cli.main(["generate", "--config", str(tmp_path / "nope.json"),
                         "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_bad_json_config(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert cli.main(["generate", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("doc", [{"r": 0}, {"speed": -1}, {"noise_sigma": -1},
                                     {"intervals": [0]}, {"intervals": [1, 1]},
                                     {"intervals": [math.inf]},
                                     {"intervals": [True, 2]},
                                     {"dense_pair_spacing": 3.0},
                                     {"source_counts": [2], "clear_radius": None,
                                      "dense_pair_spacing": 3.0},
                                     # a mistyped field, named before any work
                                     {"width": "40"}, {"height": 40.0},
                                     {"n_layouts": True}, {"n_buildings": "1"},
                                     {"placements_per_count": 1.5}, {"seed": "7"},
                                     {"speed": "1"}, {"noise_sigma": False},
                                     {"min_spacing": None}, {"r": "2"},
                                     {"clear_radius": "2"},
                                     {"source_counts": [2], "dense_pair_spacing": "1"},
                                     {"n_layouts": 2, "split": {"train": 1, "tset": 1}},
                                     {"n_layouts": 2, "split": {"train": 3, "test": -1}},
                                     # not truncated to an integer count
                                     {"source_counts": [1.7]}, {"source_counts": ["3"]},
                                     {"source_counts": [True]}, {"seed": -1},
                                     # not finite: JSON's 1e400 reads as inf
                                     {"r": math.inf}, {"clear_radius": math.inf},
                                     {"speed": math.inf}, {"noise_sigma": math.inf},
                                     {"min_spacing": math.nan},
                                     # no scenario at all, so no placement check
                                     {"source_counts": []},
                                     {"split": {"train": 0}, "n_layouts": 0},
                                     {"placements_per_count": 0},
                                     {"placements_per_count": -2},
                                     # a layout is at least 8 cells on a side
                                     {"width": -3}, {"width": 5}, {"height": 7},
                                     {"n_buildings": -1},
                                     # a document that is no object, written as is
                                     "abc", [1, 2], 5, None])
    def test_bad_config_value_before_rasterization(self, doc, tmp_path, capsys,
                                                   monkeypatch):
        rasterized = []
        monkeypatch.setattr(dataset_io, "rasterize_global",
                            lambda *args: rasterized.append(args))
        cfg = tmp_path / "cfg.json"
        base = {"width": 40, "height": 40, "n_layouts": 1, "n_buildings": 1,
                "source_counts": [1], "placements_per_count": 1,
                "split": {"train": 1, "val": 0, "test": 0}}
        cfg.write_text(json.dumps({**base, **doc} if isinstance(doc, dict) else doc))
        out = tmp_path / "o"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        if isinstance(doc, dict):
            # the message starts with the field the row gets wrong, its last key
            assert err.startswith(f"bad config: {list(doc)[-1]} ")
        else:
            assert err.startswith("bad config: config must be a JSON object, not ")
            assert err.count("\n") == 1
        assert rasterized == [] and not out.exists()

    @pytest.mark.parametrize("under", [False, True])
    def test_out_not_a_directory_before_rasterization(self, under, tmp_path, capsys,
                                                       monkeypatch):
        rasterized = []
        monkeypatch.setattr(dataset_io, "rasterize_global",
                            lambda *args: rasterized.append(args))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 40, "height": 40, "n_layouts": 1,
                                   "n_buildings": 1, "source_counts": [1],
                                   "placements_per_count": 1,
                                   "split": {"train": 1, "val": 0, "test": 0}}))
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "ds" if under else blocker
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"--out {out}: {blocker} is not a directory\n"
        assert rasterized == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "file"]
        assert blocker.read_text() == "kept"

    def test_config_not_an_object_with_seed(self, tmp_path, capsys):
        # --seed is not applied to an array, whose error names the document
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        out = tmp_path / "o"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out),
                         "--seed", "3"]) == 2
        assert capsys.readouterr().err == \
            "bad config: config must be a JSON object, not an array\n"
        assert not out.exists()

    def test_failed_placement_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 40, "height": 40, "n_layouts": 1,
                                   "n_buildings": 1, "source_counts": [2],
                                   "placements_per_count": 1, "min_spacing": 1000.0,
                                   "split": {"train": 1, "val": 0, "test": 0}}))
        out = tmp_path / "o"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == \
            ["scenario l00m02p00 failed: placed 1/2 sources after 10000 attempts"]
        assert not out.exists()

    def test_other_exception_is_a_bug_with_traceback(self, dataset, tmp_path,
                                                     monkeypatch):
        _, cfg, _ = dataset
        monkeypatch.setattr(dataset_io, "generate_dataset", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            cli.main(["generate", "--config", str(cfg), "--out", str(tmp_path / "o")])

    def test_negative_seed_override_is_bad_config(self, dataset, tmp_path, capsys):
        _, cfg, _ = dataset
        out = tmp_path / "o"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out),
                         "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("bad config: seed must be ")
        assert not out.exists()

    def test_bug_in_a_scenario_keeps_its_traceback(self, tmp_path, monkeypatch):
        # only data errors become "scenario ... failed" (exit 2)
        def broken(*args):
            raise ZeroDivisionError("division by zero")
        monkeypatch.setattr(dataset_io, "rasterize_global", broken)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 40, "height": 40, "n_layouts": 1,
                                   "n_buildings": 1, "source_counts": [1],
                                   "placements_per_count": 1,
                                   "split": {"train": 1, "val": 0, "test": 0}}))
        out = tmp_path / "o"
        with pytest.raises(ZeroDivisionError):
            cli.main(["generate", "--config", str(cfg), "--out", str(out)])
        assert not out.exists()

    @staticmethod
    def fail_in_layout_1(monkeypatch):
        # the dataset fixture's layouts hold 2 scenarios each: the 4th
        # placement is layout 1's second scenario
        placed, place = [], dataset_io.place_sources

        def place_sources(*args):
            placed.append(args)
            if len(placed) == 4:
                raise GenerationError("no room left")
            return place(*args)

        monkeypatch.setattr(dataset_io, "place_sources", place_sources)

    def test_failed_run_removes_its_new_directories(self, dataset, tmp_path, capsys,
                                                    monkeypatch):
        _, cfg, _ = dataset
        self.fail_in_layout_1(monkeypatch)
        out = tmp_path / "a" / "b" / "o"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "scenario l01m02p00 failed: no room left\n"
        assert not (tmp_path / "a").exists()

    def test_rerun_into_existing_out(self, dataset, tmp_path, capsys, monkeypatch):
        # a failed rerun changes no file; a successful one writes the same
        # bytes, mends a damaged file and a deleted folder, keeps an unrelated
        # file and leaves no staging directory
        _, cfg, ds = dataset
        out = tmp_path / "ds"
        shutil.copytree(ds, out)
        (out / "notes.txt").write_text("not generated")
        before = tree_digests(out)
        self.fail_in_layout_1(monkeypatch)
        argv = ["generate", "--config", str(cfg), "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "scenario l01m02p00 failed: no room left\n"
        assert tree_digests(out) == before
        monkeypatch.undo()
        (out / "index.json").write_text("{}")
        shutil.rmtree(out / "samples" / "10")
        assert cli.main(argv) == 0
        assert tree_digests(out) == before
        assert list(out.glob(".generate-*")) == []

    def test_seed_override_changes_bytes(self, dataset, tmp_path):
        _, cfg, out = dataset
        out2 = tmp_path / "ds2"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out2),
                         "--seed", "99"]) == 0
        a = sorted(p.name for p in (out / "maps" / "local").iterdir())
        b = sorted(p.name for p in (out2 / "maps" / "local").iterdir())
        assert a == b  # same structure
        assert any((out / "maps" / "local" / n).read_bytes()
                   != (out2 / "maps" / "local" / n).read_bytes() for n in a)


class TestPipeline:
    def test_oracle_run_ideal_rates(self, dataset, tmp_path):
        _, _, out = dataset
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--reconstructor", "oracle", "--estimator", "com",
                         "--intervals", "4"])
        assert code == 0
        report = json.loads((run / "report.json").read_text())
        assert report["aggregate"]["far"] == 0.0
        assert report["aggregate"]["mdr"] == 0.0
        assert report["aggregate"]["mle"] <= 1.0
        assert (run / "predictions").is_dir()

    def test_local_radius_is_the_datasets(self, tmp_path):
        # the merged flag compares a component with the r of the dataset's
        # local maps: a 3 m disk is no merged pair of 2 m disks
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"width": 80, "height": 80, "n_layouts": 1,
                                   "n_buildings": 3, "source_counts": [1, 3],
                                   "placements_per_count": 2, "intervals": [4],
                                   "r": 3.0, "clear_radius": 3.0, "seed": 3,
                                   "split": {"train": 1, "val": 0, "test": 0}}))
        out, run = tmp_path / "ds", tmp_path / "run"
        assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["pipeline", "--dataset", str(out), "--out", str(run)]) == 0
        results = json.loads((run / "report.json").read_text())["results"]
        assert len(results) == 4
        for row in results:
            assert row["m_hat"] == row["m"]
            assert not any(row["merged_flags"])

    @pytest.mark.parametrize("r", [None, 0, "2", True], ids=["missing", "zero",
                                                              "string", "true"])
    def test_bad_dataset_radius_is_data_error(self, dataset, tmp_path, capsys, r):
        _, _, out = dataset
        copy = tmp_path / "ds"
        shutil.copytree(out, copy)
        index = json.loads((copy / "index.json").read_text())
        index["config"].pop("r")
        if r is not None:
            index["config"]["r"] = r
        (copy / "index.json").write_text(json.dumps(index))
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(copy), "--out", str(run)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"{copy / 'index.json'}: config r must be a finite number > 0, not {r!r}"]
        assert not run.exists()

    def test_interval_resolves_to_dataset_key_by_value(self, dataset, tmp_path):
        _, _, out = dataset
        entries = read_dataset_index(out)["entries"]
        run = tmp_path / "run"
        assert cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--reconstructor", "idw", "--intervals", "4.0"]) == 0
        report = json.loads((run / "report.json").read_text())
        assert [row["interval"] for row in report["results"]] == ["4"] * len(entries)
        assert sorted(p.name for p in (run / "predictions").iterdir()) == \
            sorted(f"{entry['id']}_4.csv" for entry in entries)
        # the drop-in map of interval 4.0 is <id>_4.pgm
        ext = tmp_path / "ext"
        ext.mkdir()
        for entry in entries:
            shutil.copy(out / entry["local_map"], ext / f"{entry['id']}_4.pgm")
        assert cli.main(["pipeline", "--dataset", str(out), "--out",
                         str(tmp_path / "ext_run"), "--local-map-dir", str(ext),
                         "--intervals", "4.0"]) == 0

    def test_unknown_estimator_fails_before_processing(self, dataset, tmp_path):
        _, _, out = dataset
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--estimator", "resnet"])
        assert code == 1
        assert not run.exists()

    def test_deleted_estimator_is_usage_error(self, dataset, tmp_path, capsys):
        _, _, out = dataset
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--estimator", "argmax"])
        assert code == 1
        assert not run.exists()
        assert capsys.readouterr().err.splitlines() == \
            ["unknown estimator 'argmax'; registered: com"]

    @pytest.mark.parametrize("option", [["--r", "3"], ["--interval", "1"]])
    def test_option_prefix_is_usage_error(self, dataset, tmp_path, capsys, option):
        # --r is not read as --reconstructor, nor --interval as --intervals
        _, _, out = dataset
        run = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            cli.main(["pipeline", "--dataset", str(out), "--out", str(run), *option])
        assert exc.value.code == 1
        assert not run.exists()
        assert capsys.readouterr().err.splitlines()[-1] == \
            f"rssloc: error: unrecognized arguments: {' '.join(option)}"

    def test_help_lists_registries(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["pipeline", "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in ("oracle", "idw", "kriging", "com"):
            assert name in text
        # the estimators deleted in favour of com
        assert "argmax" not in text and "refine4" not in text

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = cli.main(["pipeline", "--dataset", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "o")])
        assert code == 2

    def test_partial_failure_exit_code(self, dataset, tmp_path):
        _, _, out = dataset
        # external local-map dir with files for only some scenarios
        ext = tmp_path / "ext"
        ext.mkdir()
        index = read_dataset_index(out)
        first = index["entries"][0]
        src = read_pgm(out / first["local_map"])
        (ext / f"{first['id']}.pgm").write_bytes(encode_pgm(src))
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--local-map-dir", str(ext), "--intervals", "4"])
        assert code == 3
        report = json.loads((run / "report.json").read_text())
        assert report["errors"]
        ok = [r for r in report["results"] if "error" not in r]
        assert len(ok) == 1 and ok[0]["id"] == first["id"]

    def test_local_map_drop_in_matches_oracle(self, dataset, tmp_path):
        _, _, out = dataset
        ext = tmp_path / "ext"
        ext.mkdir()
        index = read_dataset_index(out)
        for entry in index["entries"]:
            shutil.copy(out / entry["local_map"], ext / f"{entry['id']}.pgm")
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        assert cli.main(["pipeline", "--dataset", str(out), "--out", str(run_a),
                         "--local-map-dir", str(ext), "--intervals", "4"]) == 0
        assert cli.main(["pipeline", "--dataset", str(out), "--out", str(run_b),
                         "--reconstructor", "oracle", "--intervals", "4"]) == 0
        ra = json.loads((run_a / "report.json").read_text())["results"]
        rb = json.loads((run_b / "report.json").read_text())["results"]
        assert ra == rb

    def test_missing_local_map_dir_fails_before_out(self, dataset, tmp_path, capsys):
        _, _, out = dataset
        missing, run = tmp_path / "missing", tmp_path / "run"
        assert cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--local-map-dir", str(missing)]) == 2
        assert capsys.readouterr().err.splitlines() == \
            [f"local map directory not found: {missing}"]
        assert not run.exists()

    @pytest.mark.parametrize("options,message", [
        (["--reconstructor", "kriging", "--local-map-dir", "ext"],
         "local_map_dir is read by reconstructor 'oracle', not 'kriging'"),
        (["--reconstructor", "idw", "--local-map-dir", "ext"],
         "local_map_dir is read by reconstructor 'oracle', not 'idw'"),
        (["--noise-sigma", "2"],
         "noise_sigma > 0 needs a reconstructor that reads samples, not 'oracle'"),
    ])
    def test_option_without_effect_is_usage_error(self, dataset, tmp_path, capsys,
                                                  options, message):
        # the maps are there: an option that nothing reads is the error
        _, _, out = dataset
        ext = tmp_path / "ext"
        shutil.copytree(out / "maps" / "local", ext)
        options = [str(ext) if option == "ext" else option for option in options]
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--intervals", "4", *options])
        assert code == 1
        assert not run.exists()
        assert capsys.readouterr().err.splitlines() == [message]

    def test_wrong_shape_local_map_rejected(self, dataset, tmp_path):
        _, _, out = dataset
        ext = tmp_path / "ext"
        ext.mkdir()
        index = read_dataset_index(out)
        for entry in index["entries"]:
            (ext / f"{entry['id']}.pgm").write_bytes(
                encode_pgm(np.zeros((40, 80), dtype=np.uint8)))
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--local-map-dir", str(ext), "--intervals", "4"])
        assert code == 3
        report = json.loads((run / "report.json").read_text())
        assert not [r for r in report["results"] if "error" not in r]
        for err, entry in zip(report["errors"], index["entries"]):
            assert f"{entry['id']}.pgm" in err["error"]
            assert "(40, 80)" in err["error"] and "(80, 80)" in err["error"]

    def test_wrong_shape_oracle_local_map_rejected(self, dataset, tmp_path):
        _, _, src = dataset
        out = tmp_path / "ds"
        shutil.copytree(src, out)
        entry = read_dataset_index(out)["entries"][0]
        (out / entry["local_map"]).write_bytes(
            encode_pgm(np.zeros((80, 48), dtype=np.uint8)))
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--reconstructor", "oracle", "--intervals", "4"])
        assert code == 3
        report = json.loads((run / "report.json").read_text())
        [err] = report["errors"]
        assert err["id"] == entry["id"]
        assert entry["local_map"] in err["error"]
        assert "(80, 48)" in err["error"] and "(80, 80)" in err["error"]

    def test_sixteen_bit_local_map_rejected(self, dataset, tmp_path, capsys):
        _, _, out = dataset
        ext = tmp_path / "ext"
        ext.mkdir()
        index = read_dataset_index(out)
        for entry in index["entries"]:
            grid = read_pgm(out / entry["local_map"]).astype(">u2")
            (ext / f"{entry['id']}.pgm").write_bytes(
                b"P5\n80 80\n65535\n" + grid.tobytes())
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--local-map-dir", str(ext), "--intervals", "4"])
        assert code == 3
        report = json.loads((run / "report.json").read_text())
        assert not [r for r in report["results"] if "error" not in r]
        stderr = capsys.readouterr().err
        for err, entry in zip(report["errors"], index["entries"]):
            path = ext / f"{entry['id']}.pgm"
            assert err["error"].startswith(f"{path}: unsupported maxval 65535")
            assert f"failed: {entry['id']} interval 4: {path}: " in stderr

    def test_oracle_rejects_unknown_interval(self, dataset, tmp_path, capsys):
        _, _, out = dataset
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--reconstructor", "oracle", "--intervals", "4,3"])
        assert code == 3
        report = json.loads((run / "report.json").read_text())
        assert {r["interval"] for r in report["results"] if "error" not in r} == {"4"}
        assert report["errors"]
        stderr = capsys.readouterr().err.splitlines()
        for err in report["errors"]:
            assert err["interval"] == "3"
            assert err["error"] == "dataset has no samples at interval 3"
            assert (f"failed: {err['id']} interval 3: "
                    "dataset has no samples at interval 3") in stderr

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True])
    def test_bad_scenario_seed_is_error_row(self, dataset, tmp_path, seed):
        # the JSON seed reaches Scenario unconverted: int() would truncate
        # 1.5 and accept "7" and true
        _, _, out = dataset
        copy = tmp_path / "ds"
        shutil.copytree(out, copy)
        entry = read_dataset_index(copy)["entries"][0]
        path = copy / entry["scenario"]
        doc = json.loads(path.read_text())
        doc["seed"] = seed
        path.write_text(json.dumps(doc))
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(copy), "--out", str(run),
                         "--reconstructor", "oracle", "--intervals", "4"])
        assert code == 3
        report = json.loads((run / "report.json").read_text())
        [err] = report["errors"]
        assert err["id"] == entry["id"]
        assert err["error"].startswith(f"{path}: ")
        assert f"rng_seed must be an integer >= 0, not {seed!r}" in err["error"]

    @pytest.mark.parametrize("option,value,message", [
        ("--jobs", "0", "jobs must be an integer >= 1, not 0"),
        ("--jobs", "-2", "jobs must be an integer >= 1, not -2"),
        ("--noise-sigma", "-1", "noise_sigma must be a finite number >= 0, not -1.0"),
        ("--noise-sigma", "nan", "noise_sigma must be a finite number >= 0, not nan"),
        ("--noise-sigma", "inf", "noise_sigma must be a finite number >= 0, not inf"),
        ("--noise-seed", "-1", "noise_seed must be an unsigned 64-bit integer, not -1"),
        ("--noise-seed", "18446744073709551616",
         "noise_seed must be an unsigned 64-bit integer, not 18446744073709551616"),
    ])
    def test_out_of_range_option_fails_before_processing(self, dataset, tmp_path,
                                                         capsys, option, value,
                                                         message):
        _, _, out = dataset
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--reconstructor", "oracle", "--intervals", "4",
                         option, value])
        assert code == 1
        assert not run.exists()
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("value,message", [
        ("10,", "intervals must be finite numbers > 0, not ''"),
        ("abc", "intervals must be finite numbers > 0, not 'abc'"),
        ("0", "intervals must be finite numbers > 0, not '0'"),
        ("-1", "intervals must be finite numbers > 0, not '-1'"),
        ("nan", "intervals must be finite numbers > 0, not 'nan'"),
        ("4,4", "interval '4' repeats"),
    ])
    def test_bad_intervals_fail_before_any_scenario(self, dataset, tmp_path, capsys,
                                                     monkeypatch, value, message):
        _, _, out = dataset
        processed = []
        monkeypatch.setattr(pipeline, "process_entry",
                            lambda *args: processed.append(args) or [])
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                         "--reconstructor", "oracle", "--intervals", value])
        assert code == 1
        assert processed == [] and not run.exists()
        assert capsys.readouterr().err.splitlines() == [message]
        # the stub stands where the work is done: a good interval reaches it,
        # once per layout group
        cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                  "--reconstructor", "oracle", "--intervals", "4"])
        layouts = {entry["layout"] for entry in read_dataset_index(out)["entries"]}
        assert len(processed) == len(layouts)

    @pytest.mark.parametrize("broken,text", [("scenario", '{"sources": ['),
                                             ("scenario", "{}"), ("layout", None)],
                             ids=["scenario-not-json", "scenario-no-fields",
                                  "layout-deleted"])
    def test_unreadable_scenario_files_are_error_rows(self, dataset, tmp_path,
                                                      capsys, broken, text):
        _, _, out = dataset
        copy = tmp_path / "ds"
        shutil.copytree(out, copy)
        index = read_dataset_index(copy)
        path = copy / index["entries"][0][broken]
        if text is None:
            path.unlink()
        else:
            path.write_text(text)
        hit = {e["id"] for e in index["entries"] if e[broken] == index["entries"][0][broken]}
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(copy), "--out", str(run),
                         "--reconstructor", "oracle", "--intervals", "4,10"])
        assert code == 3
        report = json.loads((run / "report.json").read_text())
        assert len(report["results"]) == 2 * len(index["entries"])
        assert {(e["id"], e["interval"]) for e in report["errors"]} == \
            {(sid, interval) for sid in hit for interval in ("4", "10")}
        stderr = capsys.readouterr().err.splitlines()
        for err in report["errors"]:
            assert str(path) in err["error"]
            assert (f"failed: {err['id']} interval {err['interval']}: "
                    f"{err['error']}") in stderr

    def test_layout_with_255_buildings_names_file(self, dataset, tmp_path, capsys):
        # a PGM that decodes but is not a 0/1 occupancy grid
        _, _, out = dataset
        copy = tmp_path / "ds"
        shutil.copytree(out, copy)
        entries = read_dataset_index(copy)["entries"]
        path = copy / entries[0]["layout"]
        path.write_bytes(encode_pgm(read_pgm(path) * 255))
        hit = {e["id"] for e in entries if e["layout"] == entries[0]["layout"]}
        message = f"{path}: not a layout: occupancy values must be exactly 0 or 1"
        run = tmp_path / "run"
        assert cli.main(["pipeline", "--dataset", str(copy), "--out", str(run),
                         "--reconstructor", "oracle", "--intervals", "4"]) == 3
        report = json.loads((run / "report.json").read_text())
        assert {e["id"] for e in report["errors"]} == hit
        assert all(e["error"] == message for e in report["errors"])
        preds = tmp_path / "preds"
        preds.mkdir()
        assert cli.main(["evaluate", "--dataset", str(copy),
                         "--predictions", str(preds)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == message

    def test_malformed_samples_csv_names_file_and_line(self, dataset, tmp_path,
                                                       capsys):
        _, _, out = dataset
        copy = tmp_path / "ds"
        shutil.copytree(out, copy)
        index = read_dataset_index(copy)
        entry = index["entries"][0]
        csv_path = copy / entry["samples"]["10"]
        lines = csv_path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]  # drop the reading of line 3
        csv_path.write_text("\n".join(lines) + "\n")
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(copy), "--out", str(run),
                         "--reconstructor", "idw", "--intervals", "10"])
        assert code == 3
        report = json.loads((run / "report.json").read_text())
        message = f"{csv_path}: line 3: expected 3 fields, found 2"
        assert report["errors"] == [{"id": entry["id"], "interval": "10",
                                     "error": message}]
        assert len(report["results"]) == len(index["entries"])
        assert (f"failed: {entry['id']} interval 10: {message}"
                in capsys.readouterr().err.splitlines())

    @pytest.mark.parametrize("reconstructor", ["idw", "kriging"])
    def test_non_finite_samples_csv_is_error_row(self, dataset, tmp_path, capsys,
                                                 reconstructor):
        _, _, out = dataset
        copy = tmp_path / "ds"
        shutil.copytree(out, copy)
        index = read_dataset_index(copy)
        entry = index["entries"][0]
        csv_path = copy / entry["samples"]["10"]
        lines = csv_path.read_text().splitlines()
        lines[2] = "nan,nan,-50.0"
        csv_path.write_text("\n".join(lines) + "\n")
        run = tmp_path / "run"
        code = cli.main(["pipeline", "--dataset", str(copy), "--out", str(run),
                         "--reconstructor", reconstructor, "--intervals", "10"])
        assert code == 3
        report = json.loads((run / "report.json").read_text())
        message = f"{csv_path}: line 3: non-finite field in 'nan,nan,-50.0'"
        assert report["errors"] == [{"id": entry["id"], "interval": "10",
                                     "error": message}]
        assert (f"failed: {entry['id']} interval 10: {message}"
                in capsys.readouterr().err.splitlines())

    def test_defaults_are_pipeline_config_defaults(self, dataset, tmp_path):
        _, _, out = dataset
        expected = PipelineConfig().to_dict()
        for extra in ([], ["--intervals", ""]):
            run = tmp_path / f"run{len(extra)}"
            assert cli.main(["pipeline", "--dataset", str(out), "--out", str(run),
                             *extra]) == 0
            report = json.loads((run / "report.json").read_text())
            assert report["pipeline"] == expected

    def test_jobs_parallel_matches_serial(self, dataset, tmp_path):
        _, _, out = dataset
        run_a = tmp_path / "s"
        run_b = tmp_path / "p"
        assert cli.main(["pipeline", "--dataset", str(out), "--out", str(run_a),
                         "--intervals", "4"]) == 0
        assert cli.main(["pipeline", "--dataset", str(out), "--out", str(run_b),
                         "--intervals", "4", "--jobs", "2"]) == 0
        ra = json.loads((run_a / "report.json").read_text())
        rb = json.loads((run_b / "report.json").read_text())
        assert ra["results"] == rb["results"]
        assert ra["aggregate"] == rb["aggregate"]


class TestEvaluate:
    def test_external_coordinates(self, dataset, tmp_path):
        _, _, out = dataset
        index = read_dataset_index(out)
        preds = tmp_path / "preds"
        preds.mkdir()
        for entry in index["entries"]:
            doc = json.loads((out / entry["scenario"]).read_text())
            pts = [(s["x"], s["y"]) for s in doc["sources"]]
            (preds / f"{entry['id']}_4.csv").write_text(
                predictions_to_csv(range(1, len(pts) + 1), pts,
                                   [False] * len(pts)))
        report_path = tmp_path / "eval.json"
        code = cli.main(["evaluate", "--dataset", str(out),
                         "--predictions", str(preds), "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        # coordinates round-trip through 6-decimal CSV
        assert report["aggregate"]["mle"] <= 1e-5
        assert report["aggregate"]["far"] == 0.0

    def test_malformed_predictions_csv_names_file_and_line(self, dataset,
                                                           tmp_path, capsys):
        _, _, out = dataset
        preds = tmp_path / "preds"
        preds.mkdir()
        entry = read_dataset_index(out)["entries"][0]
        csv_path = preds / f"{entry['id']}_4.csv"
        csv_path.write_text("component_id,x_m,y_m,flagged\n1,1.0,1.0\n")
        code = cli.main(["evaluate", "--dataset", str(out),
                         "--predictions", str(preds)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == \
            [f"{csv_path}: line 2: expected 4 fields, found 3"]

    def test_non_finite_predictions_csv_names_file_and_line(self, dataset,
                                                            tmp_path, capsys):
        _, _, out = dataset
        preds = tmp_path / "preds"
        preds.mkdir()
        entry = read_dataset_index(out)["entries"][0]
        csv_path = preds / f"{entry['id']}_4.csv"
        csv_path.write_text("component_id,x_m,y_m,flagged\n1,inf,1.0,0\n")
        code = cli.main(["evaluate", "--dataset", str(out),
                         "--predictions", str(preds)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == \
            [f"{csv_path}: line 2: non-finite field in '1,inf,1.0,0'"]

    @pytest.mark.parametrize("text", ['{"sources": [', "{}"],
                             ids=["not-json", "no-fields"])
    def test_corrupt_scenario_is_data_error(self, dataset, tmp_path, capsys, text):
        _, _, out = dataset
        copy = tmp_path / "ds"
        shutil.copytree(out, copy)
        path = copy / read_dataset_index(copy)["entries"][0]["scenario"]
        path.write_text(text)
        preds = tmp_path / "preds"
        preds.mkdir()
        assert cli.main(["evaluate", "--dataset", str(copy),
                         "--predictions", str(preds)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{path}: ")

    def test_reads_only_the_entrys_own_files(self, dataset, tmp_path):
        # x_b_4.csv is x_b's file at interval 4, not x's at interval b_4
        _, _, out = dataset
        copy = tmp_path / "ds"
        shutil.copytree(out, copy)
        index = read_dataset_index(copy)
        index["entries"][0]["id"], index["entries"][1]["id"] = "x", "x_b"
        (copy / "index.json").write_text(json.dumps(index))
        preds = tmp_path / "preds"
        preds.mkdir()
        for entry in index["entries"][:2]:
            (preds / f"{entry['id']}_4.csv").write_text(
                predictions_to_csv([1], [(1.0, 1.0)], [False]))
        report_path = tmp_path / "eval.json"
        assert cli.main(["evaluate", "--dataset", str(copy), "--predictions",
                         str(preds), "--out", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert [(row["id"], row["interval"]) for row in report["results"]] == \
            [("x", "4"), ("x_b", "4")]

    def test_rows_in_pipeline_order(self, dataset, tmp_path):
        # intervals 4 and 10: by file name, x_10.csv would come before x_4.csv
        _, _, out = dataset
        run, report_path = tmp_path / "run", tmp_path / "eval.json"
        assert cli.main(["pipeline", "--dataset", str(out), "--out", str(run)]) == 0
        assert cli.main(["evaluate", "--dataset", str(out), "--predictions",
                         str(run / "predictions"), "--out", str(report_path)]) == 0
        pipeline_rows = json.loads((run / "report.json").read_text())["results"]
        evaluate_rows = json.loads(report_path.read_text())["results"]
        assert [(row["id"], row["interval"]) for row in evaluate_rows] == \
            [(row["id"], row["interval"]) for row in pipeline_rows]

    def test_empty_predictions_dir(self, dataset, tmp_path):
        _, _, out = dataset
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["evaluate", "--dataset", str(out),
                         "--predictions", str(empty)]) == 2


class TestRender:
    def test_deterministic_bytes(self, dataset, tmp_path):
        _, _, out = dataset
        index = read_dataset_index(out)
        entry = index["entries"][0]
        args = ["render", "--map", str(out / entry["local_map"]),
                "--layout", str(out / entry["layout"]),
                "--scenario", str(out / entry["scenario"])]
        assert cli.main(args + ["--out", str(tmp_path / "a.ppm")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "b.ppm")]) == 0
        assert (tmp_path / "a.ppm").read_bytes() == (tmp_path / "b.ppm").read_bytes()
        assert (tmp_path / "a.ppm").read_bytes().startswith(b"P6\n80 80\n255\n")

    def test_dimension_mismatch(self, dataset, tmp_path):
        _, _, out = dataset
        index = read_dataset_index(out)
        entry = index["entries"][0]
        (tmp_path / "small.pgm").write_bytes(
            encode_pgm(np.zeros((10, 10), dtype=np.uint8)))
        code = cli.main(["render", "--map", str(tmp_path / "small.pgm"),
                         "--layout", str(out / entry["layout"]),
                         "--out", str(tmp_path / "x.ppm")])
        assert code == 2

    @pytest.mark.parametrize("option,text", [
        ("--scenario", "[]"),
        ("--scenario", '{"id": "x", "seed": 1, "sources": 5}'),
        ("--scenario", '{"id": "x", "seed": 1, "sources": [{"y": 4.5, '
                       '"tx_power_dbm": 0.0, "gain_dbi": 0.0}]}'),
        ("--pred", "component_id,x_m,y_m,flagged\n1,4.5,oops,0\n"),
    ], ids=["scenario-list", "sources-not-a-list", "source-without-x",
            "pred-not-numeric"])
    def test_bad_input_file_named(self, dataset, tmp_path, capsys, option, text):
        _, _, out = dataset
        entry = read_dataset_index(out)["entries"][0]
        path = tmp_path / "bad"
        path.write_text(text)
        code = cli.main(["render", "--map", str(out / entry["local_map"]),
                         "--layout", str(out / entry["layout"]), option, str(path),
                         "--out", str(tmp_path / "x.ppm")])
        assert code == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"{path}: ")
        assert not (tmp_path / "x.ppm").exists()

    def test_corner_marker_clipped(self):
        rgb = render_map(np.zeros((20, 20), dtype=np.uint8),
                         np.zeros((20, 20), dtype=np.uint8),
                         truths=[(0.2, 0.2), (19.9, 19.9)])
        assert rgb.shape == (20, 20, 3)
        assert tuple(rgb[0, 0]) == (0, 230, 0)

    def test_empty_predictions_renders(self):
        rgb = render_map(np.zeros((10, 10), dtype=np.uint8),
                         np.zeros((10, 10), dtype=np.uint8))
        data = encode_ppm(rgb)
        assert len(data) == len(b"P6\n10 10\n255\n") + 300


@pytest.mark.parametrize("command", ["pipeline", "evaluate"])
@pytest.mark.parametrize("text,message", [
    ("{", "Expecting property name enclosed in double quotes"),
    ("[]", "expected an object with an entries list"),
    ('{"entries": [{"id": "x", "split": "test"}]}',
     "entry 0 has no layout, scenario, local_map, samples"),
    ('{"entries": [{"id": "x", "split": "test", "layout": "l", "scenario": "s",'
     ' "local_map": "m", "samples": {"1": "a.csv", "abc": "b.csv"}}]}',
     "entry 0 samples: intervals must be finite numbers > 0, not 'abc'"),
    ('{"entries": [{"id": "x", "split": "test", "layout": "l", "scenario": "s",'
     ' "local_map": "m", "samples": ["1", "4"]}]}',
     "entry 0 has samples that are not an object of interval keys"),
    ('{"entries": [{"id": "x", "split": "test", "layout": "l", "scenario": "s",'
     ' "local_map": "m", "samples": "14"}]}',
     "entry 0 has samples that are not an object of interval keys"),
    *[(json.dumps({"entries": [
        {"id": sid, "split": "test", "layout": "l", "scenario": "s",
         "local_map": "m", "samples": {"4": "a.csv"}} for sid in ids]}), message)
      for ids, message in [
          (["../../escaped"], "entry 0 has id '../../escaped', which is not a file name"),
          (["a", "b\\c"], "entry 1 has id 'b\\\\c', which is not a file name"),
          ([""], "entry 0 has id '', which is not a file name"),
          ([".."], "entry 0 has id '..', which is not a file name"),
          ([7], "entry 0 has id 7, which is not a file name"),
          (["a", "b", "a"], "entry 2 repeats id 'a'")]],
    *[(json.dumps({"entries": [
        {"id": "x", "split": "test", "layout": "l", "scenario": "s",
         "local_map": "m", "samples": dict.fromkeys(keys, "a.csv")}]}),
       f"entry 0 samples: {message}")
      for keys, message in [
          (["2", "2.0"], "interval '2.0' repeats"),
          (["nan"], "intervals must be finite numbers > 0, not 'nan'"),
          (["1", "-1"], "intervals must be finite numbers > 0, not '-1'"),
          (["inf"], "intervals must be finite numbers > 0, not 'inf'")]],
    *[(json.dumps({"entries": [
        {"id": "x", "split": "test", "layout": "l", "scenario": "s",
         "local_map": "m", "samples": {"4": "a.csv"}, **fields}]}), message)
      for fields, message in [
          ({"layout": ["x"]}, "entry 0 layout is ['x'], not a path string"),
          ({"layout": 7}, "entry 0 layout is 7, not a path string"),
          ({"samples": {"4": 7}}, "entry 0 samples '4' is 7, not a path string")]],
], ids=["not-json", "not-an-object", "entry-keys-missing",
        "samples-key-not-a-number", "samples-a-list", "samples-a-string",
        "id-escapes", "id-backslash", "id-empty", "id-dot-dot", "id-not-a-string",
        "id-repeats", "samples-key-repeats", "samples-key-nan",
        "samples-key-negative", "samples-key-inf", "layout-a-list",
        "layout-a-number", "samples-path-a-number"])
def test_malformed_index_is_data_error(tmp_path, capsys, command, text, message):
    dataset = tmp_path / "ds"
    dataset.mkdir()
    (dataset / "index.json").write_text(text)
    (tmp_path / "preds").mkdir()
    args = {"pipeline": ["--out", str(tmp_path / "run")],
            "evaluate": ["--predictions", str(tmp_path / "preds")]}[command]
    assert cli.main([command, "--dataset", str(dataset), *args]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"{dataset / 'index.json'}: {message}")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["generate", "pipeline", "evaluate", "render"])
def test_unwritable_out_is_data_error(dataset, tmp_path, command):
    # --out under a regular file: one line that names the path, no traceback
    _, cfg, ds = dataset
    entry = read_dataset_index(ds)["entries"][0]
    preds = tmp_path / "preds"
    preds.mkdir()
    (preds / f"{entry['id']}_4.csv").write_text(
        predictions_to_csv([1], [(1.0, 1.0)], [False]))
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "out"
    args = {"generate": ["--config", str(cfg)],
            "pipeline": ["--dataset", str(ds), "--intervals", "4"],
            "evaluate": ["--dataset", str(ds), "--predictions", str(preds)],
            "render": ["--map", str(ds / entry["local_map"]),
                       "--layout", str(ds / entry["layout"])]}[command]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "rssloc.cli", command, *args,
                           "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    [line] = done.stderr.splitlines()
    assert str(out) in line and "Traceback" not in line


_BLAS_ENV_AT_NUMPY_IMPORT = """
import os, sys

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not hasattr(Spy, "seen"):
            Spy.seen = [os.environ.get("OPENBLAS_NUM_THREADS"),
                        os.environ.get("OMP_NUM_THREADS")]

sys.meta_path.insert(0, Spy())
import rssloc
print(*Spy.seen)
"""


@pytest.mark.parametrize("preset,expected", [({}, ["1", "1"]),
                                             ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1"])],
                         ids=["unset", "user-set"])
def test_blas_threads_default_to_one_before_numpy_loads(preset, expected):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _BLAS_ENV_AT_NUMPY_IMPORT],
                          env={**env, **preset}, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.split() == expected


def test_cli_runs_without_scipy(tmp_path):
    # labeling, dilation, route search and assignment are rssloc's own numpy
    # code; loading scipy cost every command about 0.4 s of import
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rssloc.cli; print(sorted(m for m in "
         "sys.modules if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"
    # with scipy unimportable, no function-local import can hide in a command
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "width": 48, "height": 48, "n_layouts": 1, "n_buildings": 2,
        "source_counts": [1, 3], "placements_per_count": 1, "intervals": [4],
        "seed": 5, "split": {"train": 1, "val": 0, "test": 0}}))
    run = tmp_path / "run"
    script = ("import sys; sys.modules['scipy'] = None; import rssloc.cli; "
              "sys.exit(rssloc.cli.main(sys.argv[1:]))")
    for argv in (["generate", "--config", str(config), "--out", str(tmp_path / "ds")],
                 ["pipeline", "--dataset", str(tmp_path / "ds"), "--out", str(run),
                  "--reconstructor", "kriging"]):
        subprocess.run([sys.executable, "-c", script, *argv], env=env,
                       capture_output=True, text=True, timeout=120, check=True)
    report = json.loads((run / "report.json").read_text())
    assert len(report["results"]) == 2 and report["errors"] == []


def test_import_loads_no_process_pool():
    # only --jobs > 1 runs a process pool; loading it cost every command
    # about 1.3 MB and 15 ms of import
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, rssloc.cli; print(sorted(m for m in "
         "sys.modules if m in ('concurrent.futures.process', 'multiprocessing')))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


_PEAK_AFTER_GENERATE = """
import sys
from rssloc import cli
code = cli.main(sys.argv[1:])
with open("/proc/self/status") as f:
    print(code, next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc/self/status")
def test_generate_peak_does_not_grow_with_layouts(tmp_path):
    # generate holds one layout's files at a time: with the whole tree in
    # memory, 6 layouts peaked about 4 MB above 1, with streaming about 0.2 MB
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    peaks_kb = []
    for n in (1, 6):
        config = tmp_path / f"config{n}.json"
        config.write_text(json.dumps({
            "width": 200, "height": 200, "n_layouts": n, "n_buildings": 6,
            "source_counts": [1, 3, 5, 7], "placements_per_count": 1,
            "split": {"train": n, "val": 0, "test": 0}}))
        done = subprocess.run([sys.executable, "-c", _PEAK_AFTER_GENERATE, "generate",
                               "--config", str(config), "--out", str(tmp_path / f"ds{n}")],
                              env=env, capture_output=True, text=True, timeout=300,
                              check=True)
        code, peak_kb = done.stdout.splitlines()[-1].split()
        assert code == "0"
        peaks_kb.append(int(peak_kb))
    assert peaks_kb[1] - peaks_kb[0] < 3 * 1024, peaks_kb


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["pipeline"])  # missing required arguments
    assert exc.value.code == 1
