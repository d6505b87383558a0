import math

import pytest

from rssloc import PipelineConfig
from rssloc.pipeline import PipelineConfigError


class TestPipelineConfig:
    @pytest.mark.parametrize("field", ["r", "g"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_rejects_non_positive_radius_and_cutoff(self, field, value):
        with pytest.raises(PipelineConfigError, match=f"^{field} must be positive$"):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize("field,value,message", [
        ("jobs", 0, "jobs must be an integer >= 1, not 0"),
        ("jobs", -2, "jobs must be an integer >= 1, not -2"),
        ("jobs", 1.5, r"jobs must be an integer >= 1, not 1\.5"),
        ("jobs", True, "jobs must be an integer >= 1, not True"),
        ("jobs", "2", "jobs must be an integer >= 1, not '2'"),
        ("noise_sigma", -1.0, "noise_sigma must be >= 0"),
        ("noise_sigma", math.nan, "noise_sigma must be >= 0"),
        ("delta_db", -5.0, "delta_db must be >= 0"),
        ("delta_db", math.nan, "delta_db must be >= 0"),
        ("area_factor", 0.0, "area_factor must be positive"),
        ("area_factor", -1.0, "area_factor must be positive"),
        ("area_factor", math.nan, "area_factor must be positive"),
        ("gamma", 255, "gamma must be an integer in 0..254, not 255"),
        ("gamma", -1, "gamma must be an integer in 0..254, not -1"),
        ("gamma", 127.0, r"gamma must be an integer in 0..254, not 127\.0"),
        ("gamma", True, "gamma must be an integer in 0..254, not True"),
        ("intervals", ("10", ""), "intervals must be finite numbers > 0, not ''"),
        ("intervals", ("abc",), "intervals must be finite numbers > 0, not 'abc'"),
        ("intervals", ("0",), "intervals must be finite numbers > 0, not '0'"),
        ("intervals", ("-1",), "intervals must be finite numbers > 0, not '-1'"),
        ("intervals", ("nan",), "intervals must be finite numbers > 0, not 'nan'"),
        ("intervals", ("inf",), "intervals must be finite numbers > 0, not 'inf'"),
        ("intervals", (None,), "intervals must be finite numbers > 0, not None"),
        ("intervals", ("4", "4"), "interval '4' repeats"),
        ("intervals", ("1", "4", "1.0"), "interval '1.0' repeats"),
    ])
    def test_rejects_out_of_range_options(self, field, value, message):
        with pytest.raises(PipelineConfigError, match=f"^{message}$"):
            PipelineConfig(**{field: value})

    def test_accepts_boundary_options(self):
        PipelineConfig(jobs=1, noise_sigma=0.0, delta_db=0.0, area_factor=1e-9)
        PipelineConfig(intervals=("0.5", "1", "10"))
        PipelineConfig(gamma=0)
        PipelineConfig(gamma=254)

    def test_to_dict_lists_every_option(self):
        config = PipelineConfig(reconstructor="kriging",
                                reconstructor_params={"sill": 30.0},
                                intervals=("1", "4"), jobs=2)
        assert config.to_dict() == {
            "reconstructor": "kriging", "reconstructor_params": {"sill": 30.0},
            "estimator": "com", "r": 2.0, "gamma": 127, "g": 20.0,
            "connectivity": 8, "intervals": ["1", "4"], "noise_sigma": 0.0,
            "noise_seed": 0, "area_factor": 1.6, "delta_db": 9.0,
            "local_map_dir": None, "jobs": 2}
        assert PipelineConfig().to_dict()["intervals"] is None

    @pytest.mark.parametrize("reconstructor,params,message", [
        ("kriging", {"sil": 30.0}, "kriging takes no sil"),
        ("kriging", {"model": "exponential"}, "kriging takes no model"),
        ("kriging", {"sill": 0.0}, "need nugget >= 0, sill > 0, range_m > 0"),
        ("kriging", {"nugget": -1.0}, "need nugget >= 0, sill > 0, range_m > 0"),
        ("idw", {"range_m": 10.0}, "idw takes no range_m"),
        ("oracle", {"power": 2.0}, "oracle takes no power"),
        ("idw", {"power": "x"}, "power must be a finite number > 0, not 'x'"),
        ("idw", {"power": -2.0}, r"power must be a finite number > 0, not -2\.0"),
        ("idw", {"power": 0}, "power must be a finite number > 0, not 0"),
        ("idw", {"power": float("nan")}, "power must be a finite number > 0, not nan"),
        ("idw", {"power": float("inf")}, "power must be a finite number > 0, not inf"),
        ("idw", {"power": True}, "power must be a finite number > 0, not True"),
        ("idw", {"power": None}, "power must be a finite number > 0, not None"),
    ])
    def test_rejects_bad_reconstructor_params(self, reconstructor, params, message):
        with pytest.raises(PipelineConfigError,
                           match=f"^bad reconstructor_params: {message}$"):
            PipelineConfig(reconstructor=reconstructor, reconstructor_params=params)

    def test_accepts_reconstructor_params(self):
        PipelineConfig(reconstructor="kriging",
                       reconstructor_params={"nugget": 1.0, "sill": 30.0,
                                             "range_m": 20.0})
        PipelineConfig(reconstructor="idw", reconstructor_params={"power": 3.0})

    def test_unknown_reconstructor_lists_registry(self):
        with pytest.raises(PipelineConfigError,
                           match=r"^unknown reconstructor 'unet'; "
                                 r"registered: oracle, idw, kriging$"):
            PipelineConfig(reconstructor="unet")
