"""Dataset-level pipeline execution: build the local map (one LOCAL_MAPS
entry), separate, localize, evaluate. Per-scenario failures are recorded in
the report instead of aborting the batch.

The unit of work is a layout group: the index entries that name one layout
file. Its scenarios share the layout and drive the same route, so a local-map
constructor sees all of them at once, per interval.
"""

from __future__ import annotations

import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

from .dataset_io import (check_intervals, dumps_json, load_scenario,
                         parse_file, predictions_to_csv, read_dataset_index,
                         read_pgm, samples_from_csv)
from .localize import ESTIMATORS, localize_all
from .metrics import ScenarioEval, aggregate, evaluate_scenario
from .propagation import RadioMap
from .reconstruct import idw_reconstruct, kriging_reconstruct, proxy_local_map
from .sampling import SampleSet, add_noise
from .scenario import _check
from .separation import separate_sources


class PipelineConfigError(ValueError):
    """A pipeline option is out of range or names no registered implementation."""


@dataclass
class PipelineConfig:
    reconstructor: str = "oracle"
    estimator: str = "com"
    intervals: tuple | None = None   # None: every interval in the dataset
    noise_sigma: float = 0.0         # extra measurement noise at pipeline time
    noise_seed: int = 0
    local_map_dir: str | None = None   # the oracle reads its maps here, if set
    jobs: int = 1

    def __post_init__(self):
        if self.reconstructor not in LOCAL_MAPS:
            raise PipelineConfigError(
                f"unknown reconstructor {self.reconstructor!r}; "
                f"registered: {', '.join(LOCAL_MAPS)}")
        if self.estimator not in ESTIMATORS:
            raise PipelineConfigError(
                f"unknown estimator {self.estimator!r}; "
                f"registered: {', '.join(sorted(ESTIMATORS))}")
        for name, (kind, noun, holds) in _RANGES.items():
            _check(name, getattr(self, name), kind, noun, holds,
                   error=PipelineConfigError)
        if self.intervals is not None:
            self.intervals = tuple(self.intervals)
            check_intervals(self.intervals, PipelineConfigError)
        # an option that no step of the run would read is an error, not an echo
        if self.local_map_dir is not None and self.reconstructor != "oracle":
            raise PipelineConfigError("local_map_dir is read by reconstructor 'oracle', "
                                      f"not {self.reconstructor!r}")
        if self.noise_sigma > 0 and self.reconstructor == "oracle":
            raise PipelineConfigError("noise_sigma > 0 needs a reconstructor that "
                                      "reads samples, not 'oracle'")

    def to_dict(self) -> dict:
        return {**asdict(self),
                "intervals": list(self.intervals) if self.intervals else None}


# option -> (kind, noun, holds): the range of each numeric PipelineConfig field
_RANGES = {
    # int and float, which json can write: report.json echoes every option
    "noise_sigma": ((int, float), "a finite number >= 0", lambda value: value >= 0),
    # a 64-bit seed, as the dataset's derived seeds are
    "noise_seed": (int, "an unsigned 64-bit integer", lambda n: 0 <= n < 2**64),
    "jobs": (int, "an integer >= 1", lambda n: n >= 1),
}


def _read_local_map(path, scenario) -> RadioMap:
    """The local bitmap at path; a shape not the layout's is an error naming it."""
    values = read_pgm(path)
    expected = scenario.layout.cells.shape
    if values.shape != expected:
        raise ValueError(f"{path}: local map shape {values.shape} "
                         f"differs from layout shape {expected}")
    return RadioMap(values)


def _each(func, *columns) -> list:
    """func over the rows of the columns. A row that holds an exception, or
    whose call raises one, has that exception as its result."""
    results = []
    for args in zip(*columns):
        try:
            for arg in args:
                if isinstance(arg, Exception):
                    raise arg
            results.append(func(*args))
        except Exception as exc:
            results.append(exc)
    return results


def _oracle(dataset_dir, entries, interval, scenarios, config, r) -> list:
    """Each entry's stored local map: from config.local_map_dir,
    <id>_<interval>.pgm, else <id>.pgm; without it, the dataset's
    maps/local/<id>.pgm."""
    def read(entry, scenario):
        if config.local_map_dir is None:
            return _read_local_map(Path(dataset_dir) / entry["local_map"], scenario)
        for name in (f"{entry['id']}_{interval}.pgm", f"{entry['id']}.pgm"):
            candidate = Path(config.local_map_dir) / name
            if candidate.is_file():
                return _read_local_map(candidate, scenario)
        raise FileNotFoundError(
            f"no external local map for {entry['id']} interval {interval} "
            f"in {config.local_map_dir}")

    return _each(read, entries, scenarios)


def _read_samples(dataset_dir, entry, interval, config) -> SampleSet:
    """The entry's samples at interval, with the pipeline's noise drawn from
    the stream of (noise_seed, scenario id, interval)."""
    samples = parse_file(Path(dataset_dir) / entry["samples"][interval],
                         samples_from_csv)
    if config.noise_sigma > 0:
        samples = add_noise(samples, config.noise_sigma, config.noise_seed,
                            f"{entry['id']}\0{interval}")
    return samples


def _from_samples(reconstruct, dataset_dir, entries, interval, scenarios,
                  config, r) -> list:
    """proxy_local_map of each entry's dense map reconstructed from the
    interval's samples. Entries whose sample positions are bit-equal share
    one reconstruct call, one value row each."""
    results = _each(lambda entry: _read_samples(dataset_dir, entry, interval, config),
                    entries)
    shared = {}    # positions bytes -> indices of the entries measured there
    for k, samples in enumerate(results):
        if isinstance(samples, SampleSet):
            shared.setdefault(samples.positions.tobytes(), []).append(k)
    for members in shared.values():
        stack = SampleSet(results[members[0]].positions,
                          [results[k].values for k in members])
        try:
            dense = reconstruct(stack, scenarios[members[0]].layout)
        except Exception as exc:
            dense = [exc] * len(members)
        local = _each(lambda radio_map: proxy_local_map(radio_map, r=r), dense)
        for k, local_map in zip(members, local):
            results[k] = local_map
    return results


# The reconstruct functions are looked up when called, not stored, so that a
# module attribute rebound after import (a tracer, a test double) is used.
def _idw(dataset_dir, entries, interval, scenarios, config, r) -> list:
    return _from_samples(idw_reconstruct, dataset_dir, entries, interval, scenarios,
                         config, r)


def _kriging(dataset_dir, entries, interval, scenarios, config, r) -> list:
    return _from_samples(kriging_reconstruct, dataset_dir, entries, interval,
                         scenarios, config, r)


# --reconstructor name -> (dataset_dir, entries, interval, scenarios, config,
# r) -> per entry, its local bitmap RadioMap of the layout's shape or the
# exception that failed it. The entries share one layout file; interval is
# the dataset's key, and r the dataset's local-area radius.
LOCAL_MAPS = {"oracle": _oracle, "idw": _idw, "kriging": _kriging}


def process_entry(dataset_dir, entries: list[dict], config: PipelineConfig,
                  r: float) -> list[dict]:
    """Run every configured interval of one layout group, the index entries
    that share a layout file, with the dataset's local-area radius r;
    returns their report rows."""
    construct = LOCAL_MAPS[config.reconstructor]
    rows = []
    todo = {}    # the dataset's interval key -> [(entry, scenario)]
    for entry in entries:
        # a requested interval names the dataset's interval of the same value
        keys = {float(key): key for key in entry["samples"]}
        intervals = config.intervals or tuple(keys[value] for value in sorted(keys))
        try:
            scenario = load_scenario(dataset_dir, entry)
        except Exception as exc:
            # an unreadable scenario fails each of its rows, not the batch
            rows += [_error_row(entry, interval, exc) for interval in intervals]
            continue
        for interval in intervals:
            if float(interval) in keys:
                todo.setdefault(keys[float(interval)], []).append((entry, scenario))
            else:
                rows.append(_error_row(entry, interval, ValueError(
                    f"dataset has no samples at interval {interval}")))
    for interval, members in todo.items():
        group, scenarios = [entry for entry, _ in members], [sc for _, sc in members]
        try:
            maps = construct(dataset_dir, group, interval, scenarios, config, r)
        except Exception as exc:
            maps = [exc] * len(members)
        results = _each(lambda entry, scenario, local: _result_row(
            entry, interval, scenario, local, config, r), group, scenarios, maps)
        rows += [_error_row(entry, interval, row) if isinstance(row, Exception) else row
                 for entry, row in zip(group, results)]
    return rows


def _result_row(entry: dict, interval, scenario, local: RadioMap,
                config: PipelineConfig, r: float) -> dict:
    preds = localize_all(separate_sources(local, r=r), config.estimator)
    ev = evaluate_scenario(preds.points, scenario.true_points())
    return {
        "id": entry["id"], "interval": str(interval), "split": entry["split"],
        **asdict(ev),
        "merged_flags": list(preds.flags),
        "predictions_csv": predictions_to_csv(
            preds.component_ids, preds.points, preds.flags),
    }


def _error_row(entry: dict, interval, exc: Exception) -> dict:
    return {"id": entry["id"], "interval": str(interval), "split": entry["split"],
            "error": str(exc)}


def _process_star(args):
    return process_entry(*args)


def run_pipeline(dataset_dir, config: PipelineConfig,
                 out_dir=None) -> dict:
    """Process the whole dataset and assemble the evaluation report.

    One task per layout group, on up to config.jobs processes. Results are
    ordered by (scenario id, interval) regardless of worker scheduling; with
    out_dir set, per-scenario prediction CSVs and the report JSON are written.
    The local-area radius r is the dataset's, index.json's config.r.
    """
    index = read_dataset_index(dataset_dir)
    config_doc = index.get("config")
    r = config_doc.get("r") if isinstance(config_doc, dict) else None
    _check("config r", r, numbers.Real, "a finite number > 0",
           lambda value: value > 0, error=lambda message: ValueError(
               f"{Path(dataset_dir) / 'index.json'}: {message}"))
    if config.local_map_dir is not None and not Path(config.local_map_dir).is_dir():
        raise FileNotFoundError(f"local map directory not found: {config.local_map_dir}")
    if out_dir is not None:
        # an --out that cannot be a directory fails before any layout group runs
        (Path(out_dir) / "predictions").mkdir(parents=True, exist_ok=True)
    groups = {}
    for entry in sorted(index["entries"], key=lambda e: e["id"]):
        groups.setdefault(entry["layout"], []).append(entry)
    tasks = [(dataset_dir, group, config, r) for group in groups.values()]
    if config.jobs > 1:
        # more workers than layout groups would have nothing to do
        workers = max(1, min(config.jobs, len(tasks)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_group = list(pool.map(_process_star, tasks))
    else:
        per_group = [process_entry(*task) for task in tasks]

    rows = [row for rows_ in per_group for row in rows_]
    rows.sort(key=lambda row: (row["id"], float(row["interval"])))
    ok_rows = [row for row in rows if "error" not in row]
    errors = [row for row in rows if "error" in row]

    def _agg(selected):
        if not selected:
            return None
        report = aggregate([ScenarioEval(m=row["m"], m_hat=row["m_hat"],
                                         mle=row["mle"], far=row["far"],
                                         mdr=row["mdr"], ospa=row["ospa"])
                            for row in selected])
        return {**asdict(report), "scenarios": len(selected)}

    by_interval = {}
    for interval in sorted({row["interval"] for row in ok_rows}, key=float):
        by_interval[interval] = _agg([row for row in ok_rows
                                      if row["interval"] == interval])
    report = {
        "pipeline": config.to_dict(),
        "results": [{k: v for k, v in row.items() if k != "predictions_csv"}
                    for row in rows],
        "aggregate": _agg(ok_rows),
        "by_interval": by_interval,
        "errors": [{"id": row["id"], "interval": row["interval"],
                    "error": row["error"]} for row in errors],
    }

    if out_dir is not None:
        out = Path(out_dir)
        for row in ok_rows:
            name = f"{row['id']}_{row['interval']}.csv"
            (out / "predictions" / name).write_text(row["predictions_csv"])
        (out / "report.json").write_text(dumps_json(report))
    return report


def format_report_table(report: dict) -> str:
    """Aligned text table of the aggregate metrics, one row per interval."""
    headers = ("interval", "scenarios", "mLE (m)", "FAR", "MDR", "OSPA (m)")
    rows = [(label, str(agg["scenarios"]),
             "-" if agg["mle"] is None else f"{agg['mle']:.3f}",
             f"{agg['far']:.3f}", f"{agg['mdr']:.3f}", f"{agg['ospa']:.3f}")
            for label, agg in [*report["by_interval"].items(),
                               ("all", report["aggregate"])]
            if agg is not None]
    widths = [max(len(h), *(len(r[k]) for r in rows)) if rows else len(h)
              for k, h in enumerate(headers)]
    lines = ["  ".join(h.rjust(widths[k]) for k, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.rjust(widths[k]) for k, cell in enumerate(row)))
    return "\n".join(lines)
