"""rssloc benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout. Workloads are defined in workloads.py
(generate, kriging, idw_jobs2, clutter; BENCHMARK.json lists the first two).
Inputs are built from --seed before anything is timed. Each repetition runs
`rssloc.cli.main(argv)` in a fresh interpreter (child.py), which times the
import of rssloc.cli and, after it, the command (wall and cpu time and peak
RSS, pool workers included). Repetitions continue until --seconds have
passed, with at least MIN_REPS of them.

--trace 0 reports the end-to-end metrics: setup_s, the median import time
over every child of the run (import-only children after the repetitions make
up SETUP_MIN), the lower quartile over the repetitions of wall_s and cpu_s
(see LOW_QUARTILE), and the median peak_rss_mb. --trace 1 alternates
untraced and traced repetitions and reports the per-layer metrics of
layers.py; the spans go to .perfbench/traces/.

Every repetition's outputs are checked (checks.py): pipeline rows against an
independent numpy/scipy reference (reference.py), and all outputs byte for
byte against the first repetition's. The second-to-last stdout line is a JSON
record with quartiles, sample counts, the environment and any failures; the
last line is the result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import Checker
from layers import UNITS, counted_values, per_layer
from workloads import (DATASET_SEED, WORKLOADS, add_sample_noise, build_clutter,
                       dataset_config, expected_rows, tree_digests)

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
SETUP_MIN = 10
MIN_REPS = 3
# A run must end within 180 s: no repetition starts after SOFT_LIMIT_S, and
# any child still running at HARD_LIMIT_S is killed with its pool workers.
SOFT_LIMIT_S = 100.0
HARD_LIMIT_S = 160.0
STARTED = time.perf_counter()

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# On a 2-vCPU VM shared with other tenants, one command's wall and cpu time
# alike varied by up to 1.9x, in slow spells of 20-70 s, so a run's median
# follows the host. The inputs are fixed, so time above the fastest repetition
# is interference; but whether a run catches one quiet repetition is luck, so
# the minimum jumps between runs too. The lower quartile of the repetitions
# spread least across runs: 0.07-0.13 of the median, against 0.06-0.22 for
# the minimum and 0.08-0.15 for the median, in four sets of ten runs.
LOW_QUARTILE = ("wall_s", "cpu_s")


class Rep:
    """One child run, as the child measured it."""

    def __init__(self, times: dict, exit_code: int):
        self.import_s = times.get("import_s")
        self.wall_s = times.get("wall_s")
        self.cpu_s = times.get("cpu_s")
        self.peak_rss_mb = times.get("peak_rss_mb")
        self.exit_code = exit_code


def _kill_group(pgid: int):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(args: list[str], log: Path) -> Rep:
    """Run child.py with args, wait until it has ended, and collect what it
    measured. Any process of its group still running at HARD_LIMIT_S, pool
    workers included, is killed."""
    times = log.with_suffix(".times.json")
    times.unlink(missing_ok=True)
    with open(log, "wb") as out:
        proc = subprocess.Popen([sys.executable, str(CHILD), str(times), *args],
                                cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        killer = threading.Timer(max(0.0, STARTED + HARD_LIMIT_S - time.perf_counter()),
                                 _kill_group, (proc.pid,))
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
    return Rep(json.loads(times.read_text()) if times.exists() else {}, proc.returncode)


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")}}


def build_inputs(workload, seed: int, work: Path) -> dict:
    inputs = {"seed": seed, "config": work / "config.json"}
    config = dataset_config(DATASET_SEED if workload.needs_dataset else seed)
    inputs["config"].write_text(json.dumps(config, sort_keys=True))
    if workload.needs_dataset:
        inputs["dataset"] = work / "dataset"
        log = work / "generate-inputs.log"
        rep = run_child(["--", "generate", "--config", str(inputs["config"]),
                         "--out", str(inputs["dataset"])], log)
        if rep.exit_code != 0:
            raise RuntimeError(f"building the input dataset failed:\n{log.read_text()}")
        if workload.needs_clutter:
            inputs["clutter"] = work / "clutter"
            build_clutter(inputs["dataset"], inputs["clutter"], seed)
        else:
            add_sample_noise(inputs["dataset"], seed)
        inputs["expected"] = expected_rows(workload, inputs)
    argv = [arg.replace(str(work), "<work>") for arg in workload.argv(inputs, work / "out")]
    digest = hashlib.sha256(json.dumps(argv).encode())
    for key in ("config", "dataset", "clutter"):
        if key in inputs:
            path = inputs[key]
            digest.update(json.dumps(tree_digests(path) if path.is_dir()
                                     else path.read_text()).encode())
    inputs["sha256"] = digest.hexdigest()
    return inputs


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values), "values": values}


class Session:
    """Runs repetitions of one workload and checks every one of them."""

    def __init__(self, workload, inputs: dict, work: Path):
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.checker = Checker(workload, inputs)
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.count = 0
        self.setup: list[float] = []     # import times of every child

    def child(self, args: list[str]) -> Rep:
        self.count += 1
        rep = run_child(args, self.work / f"child-{self.count}.log")
        if rep.import_s is not None:
            self.setup.append(rep.import_s)
        return rep

    def rep(self, trace: bool) -> tuple[Rep, Path | None]:
        out = self.work / "out"
        trace_file = self.work / f"trace-{self.count + 1}.json" if trace else None
        prefix = ["--trace", str(trace_file)] if trace else []
        rep = self.child([*prefix, "--", *self.workload.argv(self.inputs, out)])
        failed, reasons = self.checker.check(out, rep.exit_code)
        if rep.exit_code != 0:
            reasons.append((self.work / f"child-{self.count}.log").read_text()[-2000:])
        self.attempted += self.workload.items
        self.failed += failed
        self.reasons += reasons
        shutil.rmtree(out, ignore_errors=True)
        return rep, trace_file

    def import_only(self):
        if self.child([]).exit_code != 0:
            raise RuntimeError("import rssloc.cli failed:\n"
                               + (self.work / f"child-{self.count}.log").read_text())


def keep_going(count: int, minimum: int, start: float, seconds: float) -> bool:
    now = time.perf_counter()
    if count and now - STARTED > SOFT_LIMIT_S:
        return False
    return count < minimum or now - start < seconds


def measure(session: Session, seconds: float) -> tuple[dict, dict]:
    reps = []
    start = time.perf_counter()
    while keep_going(len(reps), MIN_REPS, start, seconds):
        reps.append(session.rep(trace=False)[0])
    # every child gave a set-up sample; import-only children make up SETUP_MIN
    while len(session.setup) < SETUP_MIN:
        session.import_only()
    stats = {name: summary([getattr(r, name) for r in reps
                            if getattr(r, name) is not None])
             for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    stats["setup_s"] = summary(session.setup)
    return {name: s["q1" if name in LOW_QUARTILE else "median"]
            for name, s in stats.items()}, stats


def measure_traced(session: Session, seconds: float, trace_dir: Path,
                   label: str) -> tuple[dict, dict]:
    plain, traced, layer_runs, docs = [], [], [], []
    start = time.perf_counter()
    while keep_going(len(traced), 2, start, seconds):
        # alternate which side goes first, so neither always meets cold caches
        if len(traced) % 2:
            rep, trace_file = session.rep(trace=True)
            plain.append(session.rep(trace=False)[0])
        else:
            plain.append(session.rep(trace=False)[0])
            rep, trace_file = session.rep(trace=True)
        traced.append(rep)
        doc = json.loads(trace_file.read_text())
        docs.append(doc)
        layer_runs.append(per_layer(doc))
    counts = [counted_values(m) for m in layer_runs]
    if any(c != counts[0] for c in counts[1:]):
        session.failed += 1
        session.reasons.append("counted values differ between traced repetitions")
    metrics = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]}
    metrics["trace.wall_s"] = summary([r.wall_s for r in traced])["q1"]
    metrics["trace.untraced_wall_s"] = summary([r.wall_s for r in plain])["q1"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["cli.cpu_per_wall"] = statistics.median(r.cpu_s / r.wall_s for r in plain)
    quality = session.checker.quality or {}
    for key in ("mle_m", "ospa_m", "far", "mdr"):
        metrics[f"quality.{key}"] = quality.get(key) or 0.0
    trace_dir.mkdir(parents=True, exist_ok=True)
    with open(trace_dir / f"{label}.jsonl", "w") as f:
        for k, doc in enumerate(docs):
            for span in doc["spans"]:
                f.write(json.dumps({"rep": k, **span}) + "\n")
            f.write(json.dumps({"rep": k, "counts": doc["counts"]}) + "\n")
    return metrics, {"traced_reps": len(traced), "trace_file":
                     str((trace_dir / f"{label}.jsonl").relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rssloc" / "cli.py").is_file():
        print(f"no rssloc sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = environment()
        inputs = build_inputs(workload, args.seed, work)
        session = Session(workload, inputs, work)
        label = f"{workload.name}-seed{args.seed}"
        if args.trace:
            metrics, extra = measure_traced(session, args.seconds,
                                            ROOT / ".perfbench" / "traces", label)
            units = UNITS
        else:
            metrics, extra = measure(session, args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = metrics.get("wall_s") or metrics.get("trace.untraced_wall_s")
    record = {"workload": workload.name, "seed": args.seed, "why": workload.why,
              "item": workload.item, "items": workload.items,
              "items_per_s": workload.items / wall, "inputs_sha256": inputs["sha256"],
              "quality": session.checker.quality, "environment": env,
              "failures": session.reasons[:20], **extra}
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
