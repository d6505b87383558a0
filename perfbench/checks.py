"""Output checks for one repetition of a workload.

An item is a scenario for `generate` and an (id, interval) row for the
pipelines. It fails when the command exits non-zero, when it is missing, an
error row or otherwise invalid, when a pipeline row's predictions or scores
differ from the reference (reference.py), or when its bytes differ from the
first repetition's.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import reference
from workloads import (GAMMA, INTERVALS, MAP_SIZE, N_LAYOUTS, SOURCE_COUNTS,
                       read_lrmf_shape, read_pgm, tree_digests)


class Checker:
    """Holds the first repetition's output digests and compares later ones."""

    def __init__(self, workload, inputs: dict):
        self.workload = workload
        self.inputs = inputs
        self.reference: dict | None = None
        self.quality: dict | None = None

    def check(self, out: Path, exit_code: int) -> tuple[int, list[str]]:
        """Number of failed items in this repetition, and why."""
        if exit_code != 0:
            return self.workload.items, [f"exit code {exit_code}"]
        if not self.workload.needs_dataset:
            digests, failed, reasons = self._generate(out)
        else:
            digests, failed, reasons = self._pipeline(out)
        if len(digests) != self.workload.items:
            return self.workload.items, reasons + [
                f"{len(digests)} items in the output, expected {self.workload.items}"]
        if self.reference is None:
            self.reference = digests
        for item, digest in digests.items():
            if digest != self.reference.get(item) and item not in failed:
                failed.add(item)
                reasons.append(f"{item}: output differs from the first repetition")
        return len(failed), reasons

    # ----------------------------------------------------------- generate

    def _generate(self, out: Path):
        try:
            entries = json.loads((out / "index.json").read_text())["entries"]
        except (OSError, ValueError, KeyError) as exc:
            return {}, set(), [f"index.json: {exc}"]
        files = tree_digests(out)
        owned = {e["id"]: [e["scenario"], e["global_map"], e["local_map"],
                           *e["samples"].values()] for e in entries}
        mine = {path for paths in owned.values() for path in paths}
        shared = {k: v for k, v in files.items() if k not in mine}
        failed, reasons, digests = set(), [], {}
        if sorted(e["m"] for e in entries) != sorted(SOURCE_COUNTS * N_LAYOUTS):
            failed.update(owned)
            reasons.append(f"source counts {sorted(e['m'] for e in entries)}")
        for entry in entries:
            sid = entry["id"]
            digests[sid] = hashlib.sha256(json.dumps(
                [[files.get(p) for p in owned[sid]], shared]).encode()).hexdigest()
            try:
                _check_scenario(out, entry)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                failed.add(sid)
                reasons.append(f"{sid}: {exc}")
        return digests, failed, reasons

    # ----------------------------------------------------------- pipeline

    def _pipeline(self, out: Path):
        try:
            report_bytes = (out / "report.json").read_bytes()
            rows = json.loads(report_bytes)["results"]
        except (OSError, ValueError, KeyError) as exc:
            return {}, set(), [f"report.json: {exc}"]
        # the whole report (aggregates, config echo) must repeat too
        head = hashlib.sha256(report_bytes).hexdigest()
        failed, reasons, digests = set(), [], {}
        for row in rows:
            item = (row["id"], row["interval"])
            csv = b""
            try:
                if "error" in row:
                    raise ValueError(f"error row: {row['error']}")
                csv = (out / "predictions" / f"{item[0]}_{item[1]}.csv").read_bytes()
                self._check_row(row, csv)
            except (OSError, ValueError, KeyError) as exc:
                failed.add(item)
                reasons.append(f"{item}: {exc}")
            digests[item] = hashlib.sha256(
                json.dumps(row, sort_keys=True).encode() + csv).hexdigest() + head
        if set(digests) != set(self.inputs["expected"]):
            return {}, failed, reasons + ["rows differ from the dataset's (id, interval) pairs"]
        if not failed:
            try:
                self.quality = _check_aggregate(json.loads(report_bytes), rows)
            except (ValueError, KeyError, TypeError) as exc:
                failed.update(digests)
                reasons.append(f"aggregate: {exc}")
        return digests, failed, reasons

    def _check_row(self, row: dict, csv: bytes):
        text = csv.decode()
        if not text.startswith("component_id,x_m,y_m,flagged\n"):
            raise ValueError("bad predictions CSV header")
        mismatch = reference.compare(row, text,
                                     self.inputs["expected"][(row["id"], row["interval"])])
        if mismatch:
            raise ValueError(mismatch)


def _check_scenario(out: Path, entry: dict):
    m = entry["m"]
    doc = json.loads((out / entry["scenario"]).read_text())
    layout = read_pgm(out / entry["layout"])
    local = read_pgm(out / entry["local_map"])
    if layout.shape != (MAP_SIZE, MAP_SIZE) or local.shape != layout.shape:
        raise ValueError(f"map shape {local.shape}, layout {layout.shape}")
    if read_lrmf_shape(out / entry["global_map"]) != layout.shape:
        raise ValueError("global map shape differs from the layout")
    if len(doc["sources"]) != m:
        raise ValueError(f"{len(doc['sources'])} sources for M = {m}")
    for s in doc["sources"]:
        cell = (int(math.floor(s["y"])), int(math.floor(s["x"])))
        if layout[cell] != 0:
            raise ValueError(f"source at {cell} inside a building")
        if local[cell] <= GAMMA:
            raise ValueError(f"local map {local[cell]} at source cell {cell}")
    if sorted(entry["samples"], key=float) != [str(i) for i in INTERVALS]:
        raise ValueError(f"sample intervals {sorted(entry['samples'])}")
    for rel in entry["samples"].values():
        lines = (out / rel).read_text().splitlines()
        if lines[0] != "x_m,y_m,rss_dbm" or len(lines) < 2:
            raise ValueError(f"{rel}: bad samples CSV")


def _check_aggregate(report: dict, rows: list[dict]) -> dict:
    """Recompute report["aggregate"] from the rows; return the quality block."""
    agg = report["aggregate"]
    mles = [r["mle"] for r in rows if r["mle"] is not None]
    total_true = sum(r["m"] for r in rows)
    total_pred = sum(r["m_hat"] for r in rows)
    expect = {
        "mle": float(np.mean(mles)) if mles else None,
        "ospa": float(np.mean([r["ospa"] for r in rows])),
        "far": sum(max(0, r["m_hat"] - r["m"]) for r in rows) / total_pred
        if total_pred else 0.0,
        "mdr": sum(max(0, r["m"] - r["m_hat"]) for r in rows) / total_true,
        "total_true": total_true, "total_pred": total_pred, "scenarios": len(rows),
    }
    for key, value in expect.items():
        got = agg[key]
        if (value is None) != (got is None) or (
                value is not None and not math.isclose(got, value, rel_tol=1e-9,
                                                       abs_tol=1e-12)):
            raise ValueError(f"aggregate {key} {got}, rows give {value}")
    return {"mle_m": agg["mle"], "ospa_m": agg["ospa"], "far": agg["far"],
            "mdr": agg["mdr"]}
