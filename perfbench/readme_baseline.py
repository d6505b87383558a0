"""Check the README-config kriging baseline (about a minute on 2 cores).

    python3 perfbench/readme_baseline.py

Generates the README dataset (200x200, seed 42) and runs
`rssloc pipeline --reconstructor kriging --estimator com --intervals 1,4,10`,
then compares the aggregate with the figures published for it, at their
printed precision: mLE 10.4 m, FAR 0.159, MDR 0.615, OSPA 16.9 m. The
benchmark workloads use a smaller config, so this is their anchor to the
published numbers. Exits 0 when all four match.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"

README_CONFIG = {"width": 200, "height": 200, "n_layouts": 2, "n_buildings": 6,
                 "source_counts": [1, 3, 5, 7], "placements_per_count": 2,
                 "intervals": [1, 2, 4, 6, 8, 10], "seed": 42,
                 "split": {"train": 1, "val": 0, "test": 1}}
PUBLISHED = {"mle": (10.4, 1), "far": (0.159, 3), "mdr": (0.615, 3), "ospa": (16.9, 1)}


def main() -> int:
    work = ROOT / ".perfbench" / "readme-baseline"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(README_CONFIG))
        for argv in (["generate", "--config", str(config), "--out", str(work / "dataset")],
                     ["pipeline", "--dataset", str(work / "dataset"), "--out",
                      str(work / "run"), "--reconstructor", "kriging", "--estimator",
                      "com", "--intervals", "1,4,10"]):
            subprocess.run([sys.executable, str(CHILD), str(work / "times.json"), "--",
                            *argv], cwd=ROOT,
                           check=True, stdout=subprocess.DEVNULL)
        agg = json.loads((work / "run" / "report.json").read_text())["aggregate"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ok = True
    for key, (value, digits) in PUBLISHED.items():
        match = round(agg[key], digits) == value
        ok &= match
        print(f"{key}: {agg[key]:.6f} published {value} {'ok' if match else 'MISMATCH'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
