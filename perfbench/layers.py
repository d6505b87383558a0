"""Per-layer metrics computed from one traced command's spans and counters.

A layer is an rssloc module. Busy time sums a function's spans; a layer's
self time sums, over its spans, the part of each span its child spans do not
cover. Unit "count" marks values counted from what a call returned or read,
"count.computed" values derived from its arguments by formula.
"""

from __future__ import annotations

LAYERS = ("cli", "scenario", "propagation", "sampling", "dataset_io", "reconstruct",
          "separation", "localize", "metrics", "pipeline")

BUSY = ("scenario.generate_layout", "scenario.place_sources",
        "propagation.rasterize_global", "propagation.ground_truth_local",
        "sampling.build_routes", "sampling.sample_along",
        "dataset_io.load_scenario", "dataset_io.read_pgm", "dataset_io.samples_from_csv",
        "reconstruct.kriging_reconstruct", "reconstruct.idw_reconstruct",
        "reconstruct.proxy_local_map",
        "separation.separate_sources", "localize.localize_all",
        "metrics.evaluate_scenario", "pipeline.process_entry")

SPAN_SELF = ("dataset_io.generate_dataset", "pipeline.run_pipeline")

COUNTED = ("scenario.sources", "sampling.waypoints", "sampling.samples",
           "dataset_io.read_bytes", "dataset_io.bytes_written",
           "reconstruct.samples", "reconstruct.errors", "reconstruct.proxy_kept_px",
           "separation.fg_px", "separation.components", "separation.merged",
           "localize.estimates", "metrics.predictions", "metrics.truths",
           "pipeline.rows", "pipeline.error_rows")

COMPUTED = ("propagation.rays", "reconstruct.pairs")

# (name, unit, better) for every per-layer metric, in report order
METRICS = (
    [(f"{name}.busy_s", "s", "lower") for name in BUSY]
    + [(f"{name}.self_s", "s", "lower") for name in SPAN_SELF]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(name, "count", "lower") for name in COUNTED]
    + [(name, "count.computed", "lower") for name in COMPUTED]
    + [("propagation.rays_per_s", "1/s", "higher"),
       ("sampling.kept_ratio", "ratio", "higher"),
       ("reconstruct.pairs_per_s", "1/s", "higher"),
       ("separation.fg_px_per_s", "1/s", "higher"),
       ("pipeline.pool.utilization", "ratio", "higher"),
       ("pipeline.pool.idle_s", "s", "lower"),
       ("cli.cpu_per_wall", "ratio", "higher"),
       ("trace.spans", "count", "lower"),
       ("trace.wall_s", "s", "lower"),
       ("trace.untraced_wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"),
       ("quality.mle_m", "m", "lower"),
       ("quality.ospa_m", "m", "lower"),
       ("quality.far", "ratio", "lower"),
       ("quality.mdr", "ratio", "lower")]
)

UNITS = {name: unit for name, unit, _ in METRICS}


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_self_times(spans: list[dict]) -> dict[str, float]:
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {span["id"]: (span["end"] - span["start"])
            - _covered(children.get(span["id"], []), span["start"], span["end"])
            for span in spans}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def per_layer(doc: dict) -> dict[str, float]:
    """Layer metrics of one trace (the `trace.*`, `cli.cpu_per_wall` and
    `quality.*` entries come from the benchmark's own measurements instead)."""
    spans, counts = doc["spans"], doc["counts"]
    self_times = span_self_times(spans)
    out: dict[str, float] = {}
    for name in BUSY:
        out[f"{name}.busy_s"] = sum(s["end"] - s["start"] for s in spans
                                    if s["name"] == name)
    for name in SPAN_SELF:
        out[f"{name}.self_s"] = sum(self_times[s["id"]] for s in spans
                                    if s["name"] == name)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(self_times[s["id"]] for s in spans
                                     if s["name"].split(".")[0] == layer)
    for name in COUNTED:
        out[name] = counts.get(name, 0)
    for name in COMPUTED:
        out[name] = counts.get(f"{name}.computed", 0)
    out["propagation.rays_per_s"] = _ratio(out["propagation.rays"],
                                           out["propagation.rasterize_global.busy_s"])
    out["sampling.kept_ratio"] = _ratio(out["sampling.samples"],
                                        counts.get("sampling.drawn.computed", 0))
    out["reconstruct.pairs_per_s"] = _ratio(
        out["reconstruct.pairs"], out["reconstruct.kriging_reconstruct.busy_s"]
        + out["reconstruct.idw_reconstruct.busy_s"])
    out["separation.fg_px_per_s"] = _ratio(out["separation.fg_px"],
                                           out["separation.separate_sources.busy_s"])
    pools = [s for s in spans if s["name"] == "pipeline.pool"]
    capacity = sum(s["workers"] * (s["end"] - s["start"]) for s in pools)
    worker_busy = sum(s["end"] - s["start"] for s in spans
                      if s["name"] == "pipeline.process_entry" and s["pid"] != doc["pid"])
    out["pipeline.pool.utilization"] = _ratio(worker_busy, capacity)
    out["pipeline.pool.idle_s"] = capacity - worker_busy if pools else 0.0
    out["trace.spans"] = len(spans)
    return out


def counted_values(metrics: dict) -> dict:
    """The metrics that must repeat exactly between traced runs of one input."""
    return {k: v for k, v in metrics.items()
            if UNITS[k] in ("count", "count.computed")}
