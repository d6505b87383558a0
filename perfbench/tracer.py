"""Spans and counters recorded around rssloc's public functions.

The tracer wraps functions at each module boundary from outside the package:
every rssloc module attribute that refers to a wrapped function is replaced,
so calls through `from .x import f` bindings are seen too. Nothing under
`src/` knows it is being traced.

A span is a dict with id, parent, name, scenario id, pid, start and end
(`time.perf_counter`, which is system-wide monotonic on Linux, so worker
timestamps line up with the parent's). Counters are summed per name. Both
stay in memory until `dump` writes them once, when the traced command ends.

Pool workers (`rssloc pipeline --jobs N`) record their own spans. Each task's
result carries them back to the parent when it is unpickled there, and they
join the parent's trace under the pool's span.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np


def _free_cells(layout) -> int:
    return int(np.count_nonzero(layout.cells == 0))


def _file_size(path) -> int:
    return os.path.getsize(path)


def _positions_drawn(route, interval_s, speed) -> int:
    # positions sample_along draws before merging duplicates (same formula)
    return int(math.floor((route.cumulative_lengths()[-1] + 1e-9)
                          / (interval_s * speed))) + 1


def _tree_bytes(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())


def _fg_px(i_ms, gamma) -> int:
    values = getattr(i_ms, "values", i_ms)
    return int(np.count_nonzero(np.asarray(values) > gamma))


# Counter functions take the bound arguments and the result and return
# {counter name: increment}. Names ending in ".computed" are derived from
# arguments by formula; the rest are counted from what the call returned or
# touched. The ".computed" suffix is dropped from the reported name and kept
# in the metric's unit.
COUNTERS = {
    "scenario.place_sources": lambda a, r: {"scenario.sources": len(r)},
    "propagation.rasterize_global": lambda a, r: {
        "propagation.rays.computed":
            len(a["scenario"].sources) * _free_cells(a["scenario"].layout)},
    "sampling.build_routes": lambda a, r: {"sampling.waypoints": len(r.waypoints)},
    "sampling.sample_along": lambda a, r: {
        "sampling.samples": len(r),
        "sampling.drawn.computed":
            _positions_drawn(a["route"], a["interval_s"], a["speed"])},
    "dataset_io.generate_dataset": lambda a, r: {
        "dataset_io.bytes_written": _tree_bytes(a["out_dir"])},
    "dataset_io.read_dataset_index": lambda a, r: {
        "dataset_io.read_bytes": _file_size(Path(a["dataset_dir"]) / "index.json")},
    "dataset_io.load_scenario": lambda a, r: {
        "dataset_io.read_bytes":
            _file_size(Path(a["dataset_dir"]) / a["entry"]["scenario"])},
    "dataset_io.read_pgm": lambda a, r: {"dataset_io.read_bytes": _file_size(a["path"])},
    "dataset_io.samples_from_csv": lambda a, r: {"dataset_io.read_bytes": len(a["text"])},
    "reconstruct.kriging_reconstruct": lambda a, r: {
        "reconstruct.samples": len(a["sample_set"]),
        "reconstruct.pairs.computed":
            len(a["sample_set"]) * a["layout"].width * a["layout"].height},
    "reconstruct.idw_reconstruct": lambda a, r: {
        "reconstruct.samples": len(a["sample_set"]),
        "reconstruct.pairs.computed":
            len(a["sample_set"]) * a["layout"].width * a["layout"].height},
    "reconstruct.proxy_local_map": lambda a, r: {
        "reconstruct.proxy_kept_px": int(np.count_nonzero(r.values))},
    "separation.separate_sources": lambda a, r: {
        "separation.fg_px": _fg_px(a["i_ms"], a["gamma"]),
        "separation.components": len(r.labeling.components),
        "separation.merged": sum(bool(f) for f in r.merged_flags)},
    "localize.localize_all": lambda a, r: {"localize.estimates": len(r)},
    "metrics.evaluate_scenario": lambda a, r: {
        "metrics.predictions": len(a["pred"]), "metrics.truths": len(a["true"])},
    "pipeline.process_entry": lambda a, r: {
        "pipeline.rows": len(r),
        "pipeline.error_rows": sum("error" in row for row in r)},
}

# Exceptions raised out of these spans are counted as "<layer>.errors".
WRAPPED = (
    "cli.main",
    "scenario.generate_layout", "scenario.place_sources",
    "propagation.rasterize_global", "propagation.ground_truth_local",
    "sampling.build_routes", "sampling.sample_along",
    "dataset_io.generate_dataset", "dataset_io.read_dataset_index",
    "dataset_io.load_scenario", "dataset_io.read_pgm", "dataset_io.samples_from_csv",
    "reconstruct.kriging_reconstruct", "reconstruct.idw_reconstruct",
    "reconstruct.proxy_local_map",
    "separation.separate_sources",
    "localize.localize_all",
    "metrics.evaluate_scenario",
    "pipeline.run_pipeline", "pipeline.process_entry",
)


def _scenario_of(bound: dict):
    for value in bound.values():
        if isinstance(value, dict) and isinstance(value.get("id"), str):
            return value["id"]                      # dataset index entry
        if hasattr(value, "sources") and isinstance(getattr(value, "id", None), str):
            return value.id                         # rssloc.scenario.Scenario
    return None


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self.installed = False
        self._reset()

    def _reset(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._local = threading.local()
        self._next = 0
        self.pool_span = None

    def enter_process(self):
        """Drop state a forked worker copied from its parent."""
        if os.getpid() != self.pid:
            self._reset()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def new_id(self) -> str:
        with self._lock:
            self._next += 1
            return f"{self.pid}.{self._next}"

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, counts: dict):
        with self._lock:
            for name, value in counts.items():
                self.counts[name] = self.counts.get(name, 0) + value

    def record(self, span: dict):
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, func):
        signature = inspect.signature(func)
        counter = COUNTERS.get(name)
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            self.enter_process()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            parent = self.current()
            span = {"id": self.new_id(), "parent": parent and parent["id"],
                    "name": name, "pid": os.getpid(),
                    "scenario": (_scenario_of(bound.arguments)
                                 or (parent and parent["scenario"]))}
            self._stack().append(span)
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                span["error"] = type(exc).__name__
                self.add({f"{layer}.errors": 1})
                raise
            finally:
                span["end"] = time.perf_counter()
                self._stack().pop()
                self.record(span)
            if counter is not None:
                self.add(counter(bound.arguments, result))
            return result

        return traced

    def dump(self, path):
        doc = {"pid": self.pid, "spans": _label_scenarios(self.spans),
               "counts": self.counts}
        Path(path).write_text(json.dumps(doc) + "\n")


TRACER = Tracer()
_ORIGINALS: dict[str, object] = {}


def _label_scenarios(spans: list[dict]) -> list[dict]:
    """Give unlabeled spans the scenario of their siblings.

    In dataset generation, `place_sources` starts a scenario and `sample_along`
    gets only the route and the field, so neither argument list names the
    scenario; the siblings that run between two `place_sources` calls do.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    for group in children.values():
        group.sort(key=lambda s: s["start"])
        runs, run = [], []
        for span in group:
            if span["name"] == "scenario.place_sources" and run:
                runs.append(run)
                run = []
            run.append(span)
        runs.append(run)
        for run in runs:
            if not any(s["name"] == "scenario.place_sources" for s in run):
                continue
            ids = {s["scenario"] for s in run if s["scenario"]}
            if len(ids) == 1:
                sid = ids.pop()
                for span in run:
                    span["scenario"] = span["scenario"] or sid
    return spans


class _WorkerRows(list):
    """A pool task's rows; pickling carries the worker's spans and counts."""

    def __reduce__(self):
        with TRACER._lock:
            spans, counts = TRACER.spans, TRACER.counts
            TRACER.spans, TRACER.counts = [], {}
        return _from_worker, (list(self), spans, counts)


def _from_worker(rows, spans, counts):
    # runs in the parent, in the executor's result thread
    pool = TRACER.pool_span
    for span in spans:
        if span["parent"] is None:
            span["parent"] = pool
    with TRACER._lock:
        TRACER.spans.extend(spans)
    TRACER.add(counts)
    return rows


def pool_task(args):
    """Stand-in for `rssloc.pipeline._process_star` inside pool workers."""
    if not TRACER.installed:      # spawn/forkserver workers start unpatched
        install()
    TRACER.enter_process()
    return _WorkerRows(_ORIGINALS["pipeline._process_star"](args))


class TracedPool(ProcessPoolExecutor):
    """ProcessPoolExecutor that records its lifetime as a `pipeline.pool` span."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        parent = TRACER.current()
        self._span = {"id": TRACER.new_id(), "parent": parent and parent["id"],
                      "name": "pipeline.pool", "pid": os.getpid(),
                      "scenario": None, "workers": self._max_workers,
                      "start": time.perf_counter()}
        TRACER.pool_span = self._span["id"]

    def shutdown(self, *args, **kwargs):
        super().shutdown(*args, **kwargs)
        if "end" not in self._span:
            self._span["end"] = time.perf_counter()
            TRACER.record(self._span)


def _rebind(original, replacement):
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "rssloc" or mod_name.startswith("rssloc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install():
    """Wrap every function in WRAPPED wherever an rssloc module binds it.

    A wrapped name or pool hook that no longer exists raises here, so the
    traced run fails instead of reporting the layer as idle.
    """
    import importlib
    if TRACER.installed:
        return
    for name in WRAPPED:
        mod_name, func_name = name.split(".")
        original = getattr(importlib.import_module(f"rssloc.{mod_name}"), func_name)
        _ORIGINALS[name] = original
        _rebind(original, TRACER.wrap(name, original))
    pipeline = importlib.import_module("rssloc.pipeline")
    _ORIGINALS["pipeline._process_star"] = pipeline._process_star
    pipeline._process_star = pool_task
    if pipeline.ProcessPoolExecutor is not ProcessPoolExecutor:
        raise TypeError("rssloc.pipeline no longer uses the stdlib ProcessPoolExecutor")
    pipeline.ProcessPoolExecutor = TracedPool
    TRACER.installed = True
