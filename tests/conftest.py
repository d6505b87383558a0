import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from rssloc import (BuildingLayout, PropagationParams, Scenario, Source, cli,
                    generate_layout, place_sources)


@pytest.fixture
def params():
    return PropagationParams()


@pytest.fixture
def flat_layout():
    return BuildingLayout(np.zeros((60, 60), dtype=np.uint8))


def make_flat_scenario(sources, size=60, sid="t", seed=0):
    layout = BuildingLayout(np.zeros((size, size), dtype=np.uint8))
    return Scenario(layout=layout, sources=[Source(*s) for s in sources],
                    id=sid, rng_seed=seed)


def generate_scenario(width: int, height: int, n_buildings: int, m: int, seed: int,
                      min_spacing: float = 5.0, clear_radius: float | None = 2.0,
                      dense_pair_spacing: float | None = None) -> Scenario:
    """One-call scenario synthesis: layout plus sources, fully seed-determined."""
    layout_seed = np.random.SeedSequence([int(seed), 1])
    source_seed = np.random.SeedSequence([int(seed), 2])
    layout = generate_layout(width, height, n_buildings, layout_seed)
    sources = place_sources(layout, m, min_spacing, source_seed, clear_radius,
                            dense_pair_spacing)
    return Scenario(layout=layout, sources=sources, id=f"s{seed}", rng_seed=int(seed))


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A small generated dataset: (workspace, config path, dataset dir)."""
    base = tmp_path_factory.mktemp("cliws")
    config = {
        "width": 80, "height": 80, "n_layouts": 2, "n_buildings": 3,
        "source_counts": [1, 2], "placements_per_count": 1,
        "intervals": [4, 10], "seed": 424,
        "split": {"train": 1, "val": 0, "test": 1},
    }
    cfg = base / "config.json"
    cfg.write_text(json.dumps(config))
    out = base / "ds"
    assert cli.main(["generate", "--config", str(cfg), "--out", str(out)]) == 0
    return base, cfg, out
