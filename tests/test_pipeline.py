import math
import shutil

import numpy as np
import pytest

from rssloc import PipelineConfig, pipeline, run_pipeline
from rssloc.dataset_io import (DatasetConfig, generate_dataset, read_dataset_index,
                               samples_from_csv)
from rssloc.pipeline import PipelineConfigError, process_entry


class TestPipelineConfig:
    @pytest.mark.parametrize("field,value,message", [
        ("jobs", 0, "jobs must be an integer >= 1, not 0"),
        ("jobs", -2, "jobs must be an integer >= 1, not -2"),
        ("jobs", 1.5, r"jobs must be an integer >= 1, not 1\.5"),
        ("jobs", True, "jobs must be an integer >= 1, not True"),
        ("jobs", "2", "jobs must be an integer >= 1, not '2'"),
        ("noise_sigma", -1.0, r"noise_sigma must be a finite number >= 0, not -1\.0"),
        ("noise_sigma", math.nan, "noise_sigma must be a finite number >= 0, not nan"),
        ("noise_sigma", math.inf, "noise_sigma must be a finite number >= 0, not inf"),
        ("noise_sigma", "2", "noise_sigma must be a finite number >= 0, not '2'"),
        ("noise_sigma", True, "noise_sigma must be a finite number >= 0, not True"),
        ("noise_sigma", None, "noise_sigma must be a finite number >= 0, not None"),
        ("noise_seed", "x", "noise_seed must be an unsigned 64-bit integer, not 'x'"),
        ("noise_seed", 1.5, r"noise_seed must be an unsigned 64-bit integer, not 1\.5"),
        ("noise_seed", True, "noise_seed must be an unsigned 64-bit integer, not True"),
        ("noise_seed", -1, "noise_seed must be an unsigned 64-bit integer, not -1"),
        ("noise_seed", 2**64, "noise_seed must be an unsigned 64-bit integer, "
                              "not 18446744073709551616"),
        ("intervals", ("10", ""), "intervals must be finite numbers > 0, not ''"),
        ("intervals", ("abc",), "intervals must be finite numbers > 0, not 'abc'"),
        ("intervals", ("0",), "intervals must be finite numbers > 0, not '0'"),
        ("intervals", ("-1",), "intervals must be finite numbers > 0, not '-1'"),
        ("intervals", ("nan",), "intervals must be finite numbers > 0, not 'nan'"),
        ("intervals", ("inf",), "intervals must be finite numbers > 0, not 'inf'"),
        ("intervals", (None,), "intervals must be finite numbers > 0, not None"),
        ("intervals", (True,), "intervals must be finite numbers > 0, not True"),
        ("intervals", ("4", "4"), "interval '4' repeats"),
        ("intervals", ("1", "4", "1.0"), "interval '1.0' repeats"),
    ])
    def test_rejects_out_of_range_options(self, field, value, message):
        with pytest.raises(PipelineConfigError, match=f"^{message}$"):
            PipelineConfig(**{field: value})

    def test_accepts_boundary_options(self):
        PipelineConfig(jobs=1, noise_sigma=0.0)
        PipelineConfig(intervals=("0.5", "1", "10"))
        PipelineConfig(reconstructor="kriging", noise_seed=0)
        PipelineConfig(reconstructor="kriging", noise_seed=2**64 - 1)

    def test_to_dict_lists_every_option(self):
        config = PipelineConfig(reconstructor="kriging", intervals=("1", "4"), jobs=2)
        assert config.to_dict() == {
            "reconstructor": "kriging", "estimator": "com", "intervals": ["1", "4"],
            "noise_sigma": 0.0, "noise_seed": 0, "local_map_dir": None, "jobs": 2}
        assert PipelineConfig().to_dict()["intervals"] is None

    @pytest.mark.parametrize("reconstructor", ["idw", "kriging"])
    def test_local_map_dir_needs_oracle(self, reconstructor, tmp_path):
        with pytest.raises(PipelineConfigError,
                           match=f"^local_map_dir is read by reconstructor 'oracle', "
                                 f"not '{reconstructor}'$"):
            PipelineConfig(reconstructor=reconstructor, local_map_dir=str(tmp_path))
        PipelineConfig(local_map_dir=str(tmp_path))

    def test_noise_needs_a_sample_reconstructor(self):
        with pytest.raises(PipelineConfigError,
                           match="^noise_sigma > 0 needs a reconstructor that "
                                 "reads samples, not 'oracle'$"):
            PipelineConfig(noise_sigma=2.0)
        PipelineConfig(reconstructor="idw", noise_sigma=2.0)
        PipelineConfig(noise_sigma=0.0)

    def test_unknown_reconstructor_lists_registry(self):
        with pytest.raises(PipelineConfigError,
                           match=r"^unknown reconstructor 'unet'; "
                                 r"registered: oracle, idw, kriging$"):
            PipelineConfig(reconstructor="unet")


# two layouts with three scenarios each, at intervals 4 and 10
GROUP_CONFIG = {"width": 64, "height": 64, "n_layouts": 2, "n_buildings": 2,
                "source_counts": [1, 2, 3], "placements_per_count": 1,
                "intervals": [4, 10], "seed": 515,
                "split": {"train": 1, "val": 0, "test": 1}}


@pytest.fixture(scope="module")
def group_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("groups") / "ds"
    generate_dataset(DatasetConfig.from_dict(GROUP_CONFIG), out)
    return out


@pytest.fixture
def dataset_copy(group_dataset, tmp_path):
    copy = tmp_path / "ds"
    shutil.copytree(group_dataset, copy)
    entries = sorted(read_dataset_index(copy)["entries"], key=lambda e: e["id"])
    return copy, entries


def stacks_seen(monkeypatch) -> list:
    """Record the value stack of every kriging_reconstruct call the pipeline makes."""
    seen, original = [], pipeline.kriging_reconstruct

    def recording(sample_set, layout, **kwargs):
        seen.append(sample_set.values.copy())
        return original(sample_set, layout, **kwargs)

    monkeypatch.setattr(pipeline, "kriging_reconstruct", recording)
    return seen


def groups_of(entries) -> list[list[dict]]:
    return [[e for e in entries if e["layout"] == layout]
            for layout in sorted({e["layout"] for e in entries})]


KRIGING = PipelineConfig(reconstructor="kriging")


def row_key(row):
    return row["id"], row["interval"]


class TestLayoutGroups:
    def test_differing_positions_match_solo_rows(self, dataset_copy, monkeypatch):
        # one scenario of the first layout loses a sample at interval 4, so its
        # group splits into two geometries there; elsewhere a layout's three
        # scenarios share one
        copy, entries = dataset_copy
        path = copy / entries[0]["samples"]["4"]
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:5] + lines[6:]))
        seen = stacks_seen(monkeypatch)
        for group in groups_of(entries):
            seen.clear()
            grouped = process_entry(copy, group, KRIGING, 2.0)
            counts = sorted(stack.shape[0] for stack in seen)
            assert counts == ([1, 2, 3] if entries[0] in group else [3, 3])
            solo = [row for entry in group
                    for row in process_entry(copy, [entry], KRIGING, 2.0)]
            assert sorted(grouped, key=row_key) == sorted(solo, key=row_key)
            assert not any("error" in row for row in grouped)

    def test_unreadable_samples_fail_only_their_row(self, dataset_copy):
        copy, entries = dataset_copy
        clean = run_pipeline(copy, KRIGING)["results"]
        path = copy / entries[1]["samples"]["4"]
        path.write_text("x_m,y_m,rss_dbm\n1.0,2.0\n")
        results = run_pipeline(copy, KRIGING)["results"]
        bad = [row for row in results if "error" in row]
        assert [row_key(row) for row in bad] == [(entries[1]["id"], "4")]
        assert str(path) in bad[0]["error"]
        assert [row for row in results if "error" not in row] == \
            [row for row in clean if row_key(row) != (entries[1]["id"], "4")]

    def test_duplicate_positions_fail_their_geometry_only(self, dataset_copy):
        # two scenarios of the first layout repeat one sample at interval 4;
        # the third keeps the route's positions
        copy, entries = dataset_copy
        group = groups_of(entries)[0]
        clean = run_pipeline(copy, KRIGING)["results"]
        for entry in group[:2]:
            path = copy / entry["samples"]["4"]
            lines = path.read_text().splitlines(keepends=True)
            path.write_text("".join(lines + lines[1:2]))
        results = run_pipeline(copy, KRIGING)["results"]
        bad = {row_key(row) for row in results if "error" in row}
        assert bad == {(entry["id"], "4") for entry in group[:2]}
        assert all("duplicate sample positions" in row["error"]
                   for row in results if "error" in row)
        assert [row for row in results if "error" not in row] == \
            [row for row in clean if row_key(row) not in bad]


class TestPipelineNoise:
    def test_each_scenario_draws_its_own_noise(self, dataset_copy, monkeypatch,
                                                tmp_path):
        copy, entries = dataset_copy
        config = PipelineConfig(reconstructor="kriging", noise_sigma=2.0, noise_seed=9)
        seen = stacks_seen(monkeypatch)
        run_pipeline(copy, config, out_dir=tmp_path / "a")
        # one stack per layout group and interval, groups in id order
        calls = [(group, interval) for group in groups_of(entries)
                 for interval in ("4", "10")]
        assert len(seen) == len(calls)
        for stack, (group, interval) in zip(seen, calls):
            clean = np.array([samples_from_csv(
                (copy / entry["samples"][interval]).read_text()).values
                for entry in group])
            noise = stack - clean
            # sigma 2 dB: two scenarios' draws differ by far more than rounding
            for a in range(len(group)):
                for b in range(a):
                    assert np.abs(noise[a] - noise[b]).max() > 0.5
        first = [stack.tobytes() for stack in seen]
        seen.clear()
        run_pipeline(copy, config, out_dir=tmp_path / "b")
        assert [stack.tobytes() for stack in seen] == first
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()
