"""Workload definitions and the inputs each one is built from.

Inputs come from the workload seed: the dataset config of `generate`, the
sample noise of `kriging` and `idw_jobs2`, and the clutter maps. They are
built once per benchmark invocation, before anything is timed, together with
the reference predictions every pipeline row is checked against.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference

# The README config scaled from 200x200 to 100x100 cells, with 4 layouts of
# one placement each instead of 2 layouts of two, so it keeps 16 scenarios
# (M = 1, 3, 5, 7 on every layout) and all six intervals. At 200x200 one
# generate or kriging command takes over 20 s, which the run budget does not
# fit. Buildings keep their fixed 8-48 px sides, so 3 of them already cover
# more of the smaller map than 6 do at 200x200. Routes are shorter than on
# the README maps (J is a few hundred at interval 1, not about 1.5k), so the
# kriging solve is a smaller share of reconstruct here; readme_baseline.py
# keeps the README size covered for quality.
MAP_SIZE = 100
N_LAYOUTS = 4
N_BUILDINGS = 3
SOURCE_COUNTS = (1, 3, 5, 7)
INTERVALS = (1, 2, 4, 6, 8, 10)
PIPELINE_INTERVALS = (1, 4, 10)
LOCAL_RADIUS = 2.0          # rssloc's default r (dataset and pipeline)
GAMMA = 127                 # rssloc's default binarization threshold

# The pipeline workloads read one dataset, generated with the README seed.
# Reconstruction cost follows the route length, which differs by up to 60%
# between dataset seeds (kriging wall_s quartile spread 0.28 over 5 of them).
# The workload seed draws their per-run inputs instead: Gaussian noise added
# to the dataset's samples and the clutter maps.
DATASET_SEED = 42
NOISE_DB = 2.0

# Clutter: spurious disks per map per unit interval. The README-size figure
# (40 per interval on 200x200) scaled to a quarter of the area.
CLUTTER_PER_INTERVAL = 10
CLUTTER_RADIUS = (1.5, 6.0)
CLUTTER_INTENSITY = (128, 255)


def dataset_config(seed: int) -> dict:
    return {"width": MAP_SIZE, "height": MAP_SIZE, "n_layouts": N_LAYOUTS,
            "n_buildings": N_BUILDINGS, "source_counts": list(SOURCE_COUNTS),
            "placements_per_count": 1, "intervals": list(INTERVALS),
            "seed": seed,
            "split": {"train": N_LAYOUTS - N_LAYOUTS // 2, "val": 0,
                      "test": N_LAYOUTS // 2}}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item: str                  # what one attempted operation is
    needs_dataset: bool
    needs_clutter: bool
    pipeline_args: tuple = ()

    @property
    def intervals(self) -> tuple:
        return INTERVALS if self.needs_clutter else PIPELINE_INTERVALS

    @property
    def items(self) -> int:
        n_scenarios = N_LAYOUTS * len(SOURCE_COUNTS)
        return n_scenarios * len(self.intervals) if self.needs_dataset else n_scenarios

    def argv(self, inputs: dict, out: Path) -> list[str]:
        if not self.needs_dataset:
            return ["generate", "--config", str(inputs["config"]), "--out", str(out)]
        argv = ["pipeline", "--dataset", str(inputs["dataset"]), "--out", str(out),
                *self.pipeline_args]
        if self.needs_clutter:
            return argv + ["--local-map-dir", str(inputs["clutter"])]
        return argv


_PIPE = ("--estimator", "com",
         "--intervals", ",".join(str(i) for i in PIPELINE_INTERVALS))

WORKLOADS = {w.name: w for w in (
    Workload("generate",
             "rssloc generate: rasterize_global dominates, then routes and "
             "sampling; no reconstruction, separation or metrics run",
             "scenario", needs_dataset=False, needs_clutter=False),
    Workload("kriging",
             "pipeline --reconstructor kriging --jobs 1 at intervals 1,4,10: "
             "reconstruct is nearly all of the pipeline's time; BLAS threads use both cores",
             "row", needs_dataset=True, needs_clutter=False,
             pipeline_args=("--reconstructor", "kriging", *_PIPE, "--jobs", "1")),
    Workload("idw_jobs2",
             "pipeline --reconstructor idw --jobs 2: the only path through the "
             "process pool, and a reconstructor with no BLAS solve",
             "row", needs_dataset=True, needs_clutter=False,
             pipeline_args=("--reconstructor", "idw", *_PIPE, "--jobs", "2")),
    Workload("clutter",
             "pipeline --local-map-dir on truth maps plus spurious disks, all "
             "intervals: separation, localize and metrics; reconstruct bypassed",
             "row", needs_dataset=True, needs_clutter=True,
             pipeline_args=("--estimator", "com", "--jobs", "1")),
)}


# ------------------------------------------------------------ file formats
# Decoded here without rssloc, so the checks do not trust the code they check.

def read_pgm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    magic, width, height, maxval, raster = data.split(maxsplit=4)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit P5 PGM")
    return np.frombuffer(raster, np.uint8).reshape(int(height), int(width))


def write_pgm(path, grid: np.ndarray):
    h, w = grid.shape
    Path(path).write_bytes(f"P5\n{w} {h}\n255\n".encode() + grid.astype(np.uint8).tobytes())


def read_lrmf_shape(path) -> tuple[int, int]:
    data = Path(path).read_bytes()
    w, h = np.frombuffer(data[4:12], "<u4")
    if data[:4] != b"LRMF" or len(data) != 12 + 4 * int(w) * int(h):
        raise ValueError(f"{path}: not an LRMF grid")
    return int(h), int(w)


def tree_digests(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ------------------------------------------------------------ noisy samples

def add_sample_noise(dataset: Path, seed: int):
    """Add N(0, NOISE_DB) dB to every sample value of the dataset, in place."""
    index = json.loads((dataset / "index.json").read_text())
    for k, entry in enumerate(sorted(index["entries"], key=lambda e: e["id"])):
        for interval, rel in sorted(entry["samples"].items()):
            positions, values = reference.read_samples((dataset / rel).read_text())
            rng = np.random.default_rng([seed, 11, k, int(interval)])
            values = values + rng.normal(0.0, NOISE_DB, len(values))
            (dataset / rel).write_text("x_m,y_m,rss_dbm\n" + "".join(
                f"{x:.6f},{y:.6f},{v:.6f}\n" for (x, y), v in zip(positions, values)))


# ------------------------------------------------------------ clutter maps

def clutter_map(truth: np.ndarray, layout: np.ndarray, sources: list,
                n_disks: int, rng: np.random.Generator) -> np.ndarray:
    """Truth local map plus n_disks spurious disks on free cells.

    A disk centre lies farther than radius + r + 2.5 from every source, so
    no disk pixel touches (8-connectivity) a true local area: every true
    component, and so its estimate, stays as in the oracle map.
    """
    out = truth.copy()
    free = np.argwhere(layout == 0)
    h, w = truth.shape
    ii, jj = np.mgrid[0:h, 0:w]
    placed = 0
    while placed < n_disks:
        i, j = free[rng.integers(len(free))]
        x, y = j + rng.random(), i + rng.random()
        radius = rng.uniform(*CLUTTER_RADIUS)
        level = int(rng.integers(CLUTTER_INTENSITY[0], CLUTTER_INTENSITY[1] + 1))
        if any(math.hypot(x - sx, y - sy) <= radius + LOCAL_RADIUS + 2.5
               for sx, sy in sources):
            continue
        disk = ((jj + 0.5 - x) ** 2 + (ii + 0.5 - y) ** 2 <= radius ** 2) & (layout == 0)
        out[disk] = np.maximum(out[disk], level)
        placed += 1
    return out


def _sources(dataset: Path, entry: dict) -> list[tuple[float, float]]:
    doc = json.loads((dataset / entry["scenario"]).read_text())
    return [(s["x"], s["y"]) for s in doc["sources"]]


def build_clutter(dataset: Path, out_dir: Path, seed: int):
    """Write <id>_<interval>.pgm for every scenario and interval."""
    out_dir.mkdir(parents=True)
    index = json.loads((dataset / "index.json").read_text())
    for k, entry in enumerate(sorted(index["entries"], key=lambda e: e["id"])):
        truth = read_pgm(dataset / entry["local_map"])
        layout = read_pgm(dataset / entry["layout"])
        for interval in INTERVALS:
            rng = np.random.default_rng([seed, 7, k, interval])
            grid = clutter_map(truth, layout, _sources(dataset, entry),
                               CLUTTER_PER_INTERVAL * interval, rng)
            write_pgm(out_dir / f"{entry['id']}_{interval}.pgm", grid)


def expected_rows(workload: Workload, inputs: dict) -> dict:
    """{(id, interval): (reference predictions, reference scores)} per row."""
    dataset = inputs["dataset"]
    index = json.loads((dataset / "index.json").read_text())
    method = dict(zip(workload.pipeline_args[::2], workload.pipeline_args[1::2])
                  ).get("--reconstructor")
    expected = {}
    for entry in index["entries"]:
        truths = _sources(dataset, entry)
        for interval in workload.intervals:
            if workload.needs_clutter:
                bitmap = read_pgm(inputs["clutter"] / f"{entry['id']}_{interval}.pgm")
            else:
                positions, values = reference.read_samples(
                    (dataset / entry["samples"][str(interval)]).read_text())
                bitmap = reference.proxy_bitmap(reference.dense_map(
                    method, positions, values, read_pgm(dataset / entry["layout"])))
            preds = reference.predictions(bitmap)
            expected[(entry["id"], str(interval))] = (
                preds, reference.scores([(x, y) for x, y, _ in preds], truths))
    return expected
