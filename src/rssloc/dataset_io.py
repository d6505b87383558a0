"""Dataset generation and every on-disk format the toolkit speaks.

Formats: binary PGM (P5) for layouts and bitmaps, a small float32 grid
container for dBm fields (magic LRMF), CSV for samples and predictions, JSON
for scenarios and the dataset index. Generation is a pure function of
(config, master seed) and regenerates byte-identically.
"""

from __future__ import annotations

import json
import math
import numbers
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .propagation import PropagationParams, ground_truth_local, rasterize_global
from .sampling import SampleSet, add_noise, build_routes, sample_along
from .scenario import BuildingLayout, GenerationError, Scenario, Source, _check, \
    check_placement, generate_layout, place_sources


class PgmError(ValueError):
    """Malformed PGM data; messages carry the offending byte offset."""


class LrmfError(ValueError):
    """Malformed LRMF grid file."""


# ---------------------------------------------------------------- PGM (P5)

def encode_pgm(grid: np.ndarray) -> bytes:
    grid = np.asarray(grid)
    if grid.ndim != 2:
        raise ValueError("PGM grids must be 2D")
    if grid.dtype != np.uint8:
        raise ValueError(f"PGM grids must be uint8, not {grid.dtype}")
    return f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode() + grid.tobytes()


def _pgm_token(data: bytes, pos: int) -> tuple[bytes, int]:
    while pos < len(data):
        c = data[pos:pos + 1]
        if c in (b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"):
            pos += 1
        elif c == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise PgmError(f"unterminated comment starting at byte {pos}")
            pos = nl + 1
        else:
            break
    if pos >= len(data):
        raise PgmError(f"unexpected end of header at byte {pos}")
    start = pos
    while pos < len(data) and data[pos:pos + 1] not in (b" ", b"\t", b"\n", b"\r",
                                                        b"\x0b", b"\x0c"):
        pos += 1
    return data[start:pos], pos


def decode_pgm(data: bytes) -> np.ndarray:
    magic, pos = _pgm_token(data, 0)
    if magic != b"P5":
        raise PgmError(f"expected P5 magic at byte 0, found {magic!r}")
    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _pgm_token(data, pos)
        if not token.isdigit():
            raise PgmError(f"invalid {name} token {token!r} at byte {pos - len(token)}")
        fields.append(int(token))
    width, height, maxval = fields
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval} at byte {pos - len(token)}; "
                       "only 8-bit (maxval 255) PGM is read")
    if pos >= len(data) or data[pos:pos + 1] not in (b" ", b"\t", b"\n", b"\r"):
        raise PgmError(f"expected single whitespace before raster at byte {pos}")
    raster = data[pos + 1:]
    if len(raster) != width * height:
        raise PgmError(f"raster at byte {pos + 1}: expected {width * height} bytes, "
                       f"found {len(raster)}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy()


def read_pgm(path) -> np.ndarray:
    try:
        return decode_pgm(Path(path).read_bytes())
    except PgmError as exc:
        raise PgmError(f"{path}: {exc}") from None


# ---------------------------------------------------------- LRMF float grid

def encode_lrmf(grid: np.ndarray) -> bytes:
    grid = np.asarray(grid, dtype=np.float32)
    if grid.ndim != 2:
        raise ValueError("LRMF grids must be 2D")
    h, w = grid.shape
    return b"LRMF" + struct.pack("<II", w, h) + grid.astype("<f4").tobytes()


def decode_lrmf(data: bytes) -> np.ndarray:
    if data[:4] != b"LRMF":
        raise LrmfError(f"expected LRMF magic at byte 0, found {data[:4]!r}")
    if len(data) < 12:
        raise LrmfError(f"truncated header: {len(data)} bytes, need 12")
    w, h = struct.unpack("<II", data[4:12])
    expected = 12 + 4 * w * h
    if len(data) != expected:
        raise LrmfError(f"raster at byte 12: expected {expected - 12} bytes, "
                        f"found {len(data) - 12}")
    return np.frombuffer(data[12:], dtype="<f4").astype(np.float32).reshape(h, w)


# ----------------------------------------------------------------- CSV / JSON

def samples_to_csv(sample_set: SampleSet) -> str:
    # one %-format over every row writes the bytes of a per-line f"{v:.6f}"
    rows = np.column_stack([sample_set.positions, sample_set.values])
    return "x_m,y_m,rss_dbm\n" + ("%.6f,%.6f,%.6f\n" * len(rows)) % tuple(
        rows.ravel().tolist())


def _csv_lines(text: str, header: str) -> list[tuple[int, str]]:
    """(1-based line number, stripped line) of every non-blank line after
    the header, which must match exactly."""
    lines = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), 1)
             if ln.strip()]
    if not lines or lines[0][1] != header:
        raise ValueError(f"bad CSV header, expected {header!r}")
    return lines[1:]


def _csv_rows(lines: list[tuple[int, str]], types) -> list[list]:
    """Fields of every line, converted by types; a field that does not
    convert or is not finite (nan, inf) is an error that names the line."""
    rows = []
    for n, ln in lines:
        fields = ln.split(",")
        if len(fields) != len(types):
            raise ValueError(f"line {n}: expected {len(types)} fields, "
                             f"found {len(fields)}")
        try:
            row = [t(f) for t, f in zip(types, fields)]
        except ValueError:
            raise ValueError(f"line {n}: non-numeric field in {ln!r}") from None
        if not all(map(math.isfinite, row)):
            raise ValueError(f"line {n}: non-finite field in {ln!r}")
        rows.append(row)
    return rows


def samples_from_csv(text: str) -> SampleSet:
    """numpy parses the fields as float() does; _csv_rows re-reads a file
    that does not give finite rows of 3 fields, to name its bad line."""
    lines = _csv_lines(text, "x_m,y_m,rss_dbm")
    try:
        rows = np.array([ln.split(",") for _, ln in lines], dtype=np.float64)
    except ValueError:
        rows = None
    if rows is None or rows.shape != (len(lines), 3) or not np.isfinite(rows).all():
        rows = np.array(_csv_rows(lines, (float, float, float)),
                        dtype=np.float64).reshape(-1, 3)
    return SampleSet(positions=rows[:, :2], values=rows[:, 2])


def predictions_to_csv(component_ids, points, flags) -> str:
    lines = ["component_id,x_m,y_m,flagged"]
    for cid, (x, y), flag in zip(component_ids, points, flags):
        lines.append(f"{cid},{x:.6f},{y:.6f},{int(flag)}")
    return "\n".join(lines) + "\n"


def predictions_from_csv(text: str):
    rows = _csv_rows(_csv_lines(text, "component_id,x_m,y_m,flagged"),
                     (int, float, float, int))
    return ([cid for cid, _, _, _ in rows], [(x, y) for _, x, y, _ in rows],
            [bool(flag) for _, _, _, flag in rows])


def parse_file(path, parse):
    """parse applied to the text of the file at path; its ValueError names the file."""
    try:
        return parse(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def scenario_to_dict(scenario: Scenario, layout_ref: str, sampling: dict) -> dict:
    return {
        "id": scenario.id,
        "width": scenario.layout.width,
        "height": scenario.layout.height,
        "seed": scenario.rng_seed,
        "sources": [{"x": s.x, "y": s.y, "tx_power_dbm": s.tx_power_dbm,
                     "gain_dbi": s.gain_dbi} for s in scenario.sources],
        "layout": layout_ref,
        "sampling": sampling,
    }


def scenario_from_dict(doc: dict, layout: BuildingLayout) -> Scenario:
    sources = [Source(s["x"], s["y"], s["tx_power_dbm"], s["gain_dbi"])
               for s in doc["sources"]]
    return Scenario(layout=layout, sources=sources, id=doc["id"],
                    rng_seed=doc["seed"])


def dumps_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------- dataset generation

_SPLITS = ("train", "val", "test")


def check_intervals(keys, error=ValueError) -> None:
    """error unless each interval key, a number or its text, is a finite
    number > 0 and no two have one value."""
    values = []
    for key in keys:
        try:
            value = math.nan if isinstance(key, bool) else float(key)
        except (TypeError, ValueError):
            value = math.nan
        if not 0 < value < math.inf:
            raise error(f"intervals must be finite numbers > 0, not {key!r}")
        if value in values:
            raise error(f"interval {key!r} repeats")
        values.append(value)


# the JSON name of each type json.loads returns, objects (dict) aside
_JSON_TYPES = {list: "an array", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


@dataclass
class DatasetConfig:
    width: int = 200
    height: int = 200
    n_layouts: int = 2
    n_buildings: int = 6
    source_counts: tuple = (1, 3)
    placements_per_count: int = 2
    intervals: tuple = (1, 2, 4, 6, 8, 10)
    speed: float = 1.0
    noise_sigma: float = 0.0
    min_spacing: float = 5.0
    clear_radius: float | None = 2.0
    r: float = 2.0
    seed: int = 0
    dense_pair_spacing: float | None = None
    split: dict = field(default_factory=lambda: {"train": 1, "val": 0, "test": 1})

    def __post_init__(self):
        # name -> least value; a layout is at least 8 cells on a side
        for name, least in (("width", 8), ("height", 8), ("n_layouts", 1),
                            ("n_buildings", 0), ("placements_per_count", 1)):
            _check(name, getattr(self, name), numbers.Integral,
                   f"an integer >= {least}", lambda n: n >= least)
        _check("seed", self.seed, numbers.Integral, "an integer >= 0", lambda n: n >= 0)
        _check("min_spacing", self.min_spacing, numbers.Real, "a finite number")
        _check("r", self.r, numbers.Real, "positive and finite", lambda r: r > 0)
        _check("speed", self.speed, numbers.Real, "positive and finite", lambda v: v > 0)
        _check("noise_sigma", self.noise_sigma, numbers.Real, ">= 0 and finite",
               lambda s: s >= 0)
        for name in ("clear_radius", "dense_pair_spacing"):
            if getattr(self, name) is not None:
                _check(name, getattr(self, name), numbers.Real,
                       "a finite number or null")
        if not isinstance(self.split, dict) or not set(self.split) <= set(_SPLITS):
            raise ValueError("split must be an object of layout counts keyed by "
                             f"{', '.join(_SPLITS)}, not {self.split!r}")
        for name, count in self.split.items():
            _check(f"split {name}", count, numbers.Integral, "an integer >= 0",
                   lambda n: n >= 0)
        if sum(self.split.values()) != self.n_layouts:
            raise ValueError("split layout counts must sum to n_layouts")
        self.source_counts = tuple(self.source_counts)
        self.intervals = tuple(self.intervals)
        if not self.intervals:
            raise ValueError("intervals must not be empty")
        if not self.source_counts:
            raise ValueError("source_counts must not be empty")
        for interval in self.intervals:
            _check("intervals", interval, numbers.Real, "positive finite numbers",
                   lambda t: 0 < t < math.inf)
        if len(set(self.intervals)) != len(self.intervals):
            raise ValueError("intervals must not repeat")
        for m in self.source_counts:
            _check("source_counts", m, numbers.Integral, "integers")
            check_placement(m, self.clear_radius, self.dense_pair_spacing)
        self.source_counts = tuple(map(int, self.source_counts))

    @classmethod
    def from_dict(cls, doc: dict) -> "DatasetConfig":
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object, not "
                             + _JSON_TYPES.get(type(doc), type(doc).__name__))
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return asdict(self)


def _derived_seed(*parts) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1, np.uint64)[0])


def generate_dataset(config: DatasetConfig, out_dir) -> dict:
    """Generate every scenario, map, and sample file, then write the tree.

    Files are produced fully in memory first so a failing scenario leaves no
    partial dataset behind; the raised error names the failing scenario.
    """
    params = PropagationParams()
    # layout li's split: the train layouts first, then val, then test
    splits = [name for name in _SPLITS for _ in range(config.split.get(name, 0))]
    files: list[tuple[str, bytes]] = []
    entries = []
    for li in range(config.n_layouts):
        layout = generate_layout(config.width, config.height, config.n_buildings,
                                 np.random.SeedSequence([config.seed, 1, li]))
        route = build_routes(layout)
        layout_name = f"l{li:02d}"
        files.append((f"layouts/{layout_name}.pgm", encode_pgm(layout.cells)))
        for m in config.source_counts:
            for pi in range(config.placements_per_count):
                sid = f"{layout_name}m{m:02d}p{pi:02d}"
                seed = _derived_seed(config.seed, 2, li, m, pi)
                try:
                    sources = place_sources(layout, m, config.min_spacing, seed,
                                            config.clear_radius,
                                            config.dense_pair_spacing)
                    scenario = Scenario(layout=layout, sources=sources,
                                        id=sid, rng_seed=seed)
                    global_map = rasterize_global(scenario, params)
                    local_map = ground_truth_local(scenario, params, config.r,
                                                   global_map=global_map)
                except (GenerationError, ValueError) as exc:
                    raise GenerationError(f"scenario {sid} failed: {exc}") from exc
                sampling_meta = {"intervals": list(config.intervals),
                                 "speed": config.speed,
                                 "noise_sigma": config.noise_sigma,
                                 "seed": seed}
                files.append((f"scenarios/{sid}.json",
                              dumps_json(scenario_to_dict(
                                  scenario, layout_ref=f"layouts/{layout_name}.pgm",
                                  sampling=sampling_meta)).encode()))
                files.append((f"maps/global/{sid}.lrmf",
                              encode_lrmf(global_map.values)))
                files.append((f"maps/local/{sid}.pgm", encode_pgm(local_map.values)))
                sample_paths = {}
                for ki, interval in enumerate(config.intervals):
                    sset = sample_along(route, global_map, interval, config.speed)
                    if config.noise_sigma > 0:
                        sset = add_noise(sset, config.noise_sigma,
                                         _derived_seed(config.seed, 3, li, m, pi, ki))
                    rel = f"samples/{interval}/{sid}.csv"
                    files.append((rel, samples_to_csv(sset).encode()))
                    sample_paths[str(interval)] = rel
                entries.append({
                    "id": sid, "split": splits[li], "m": m,
                    "layout": f"layouts/{layout_name}.pgm",
                    "scenario": f"scenarios/{sid}.json",
                    "global_map": f"maps/global/{sid}.lrmf",
                    "local_map": f"maps/local/{sid}.pgm",
                    "samples": sample_paths,
                })
    index = {"config": config.to_dict(), "entries": entries}
    files.append(("index.json", dumps_json(index).encode()))

    out = Path(out_dir)
    for folder in dict.fromkeys((out / rel).parent for rel, _ in files):
        folder.mkdir(parents=True, exist_ok=True)
    for rel, payload in files:
        (out / rel).write_bytes(payload)
    return index


_ENTRY_KEYS = ("id", "split", "layout", "scenario", "local_map", "samples")


def read_dataset_index(dataset_dir) -> dict:
    """The dataset's index.json; ValueError naming the file when it is not JSON
    or not an object whose "entries" list holds each entry's keys, its id a
    unique file name, its file paths strings and samples an object keyed by
    check_intervals' rule."""
    index_path = Path(dataset_dir) / "index.json"
    if not index_path.is_file():
        raise FileNotFoundError(f"no index.json in {dataset_dir}")
    try:
        index = json.loads(index_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{index_path}: {exc}") from None
    entries = index.get("entries") if isinstance(index, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{index_path}: expected an object with an entries list")
    ids = set()
    for k, entry in enumerate(entries):
        missing = [key for key in _ENTRY_KEYS
                   if not isinstance(entry, dict) or key not in entry]
        if missing:
            raise ValueError(f"{index_path}: entry {k} has no {', '.join(missing)}")
        # the id names the entry's prediction files, <id>_<interval>.csv
        sid = entry["id"]
        if not isinstance(sid, str) or sid in ("", ".", "..") or "/" in sid \
                or "\\" in sid:
            raise ValueError(f"{index_path}: entry {k} has id {sid!r}, "
                             "which is not a file name")
        if sid in ids:
            raise ValueError(f"{index_path}: entry {k} repeats id {sid!r}")
        ids.add(sid)
        if not isinstance(entry["samples"], dict):
            raise ValueError(f"{index_path}: entry {k} has samples that are not "
                             "an object of interval keys")
        try:
            check_intervals(entry["samples"])
        except ValueError as exc:
            raise ValueError(f"{index_path}: entry {k} samples: {exc}") from None
        paths = [(key, entry[key]) for key in ("layout", "scenario", "local_map")]
        paths += [(f"samples {key!r}", value) for key, value in entry["samples"].items()]
        for name, value in paths:
            if not isinstance(value, str):
                raise ValueError(f"{index_path}: entry {k} {name} is {value!r}, "
                                 "not a path string")
    return index


def load_scenario(dataset_dir, entry: dict) -> Scenario:
    """The entry's layout and sources; a file that cannot be read or parsed
    raises an error that names it."""
    base = Path(dataset_dir)
    path = base / entry["layout"]
    cells = read_pgm(path)
    try:
        layout = BuildingLayout(cells)
    except ValueError as exc:
        raise ValueError(f"{path}: not a layout: {exc}") from None
    path = base / entry["scenario"]
    try:
        return scenario_from_dict(json.loads(path.read_text()), layout)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: not a scenario: {type(exc).__name__}: {exc}") from None
