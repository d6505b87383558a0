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
