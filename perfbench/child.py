"""Run one rssloc command in this fresh interpreter and time it from inside.

    python3 perfbench/child.py TIMES [--trace FILE] -- <rssloc argv...>
    python3 perfbench/child.py TIMES

The checkout's `src/` goes first on sys.path, so the code measured is the
code in the checkout. TIMES receives a JSON object: `import_s`, the seconds
`import rssloc.cli` took, and with a command `wall_s` and `cpu_s`, its wall
time and its user + system time (reaped pool workers included), both counted
from after the import, and `peak_rss_mb`, the larger of this process's and
its pool workers' peak resident set. With --trace, the benchmark's wrappers
are installed before the command starts and the trace is written to FILE
after it ends.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def cpu_s() -> float:
    return sum(r.ru_utime + r.ru_stime for r in (
        resource.getrusage(resource.RUSAGE_SELF),
        resource.getrusage(resource.RUSAGE_CHILDREN)))


def peak_rss_mb() -> float:
    # VmHWM counts this process only. Its ru_maxrss would also count the
    # benchmark process it was started from, whose peak carries over exec.
    with open("/proc/self/status") as f:
        own_kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    workers_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kb, workers_kb) / 1024.0


def main(argv: list[str]) -> int:
    times_path, argv = Path(argv[0]), argv[1:]
    start = time.perf_counter()
    import rssloc.cli
    times = {"import_s": time.perf_counter() - start}
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        if trace_path is not None:
            import tracer
            tracer.install()
        cpu, start = cpu_s(), time.perf_counter()
        try:
            return rssloc.cli.main(argv[1:])
        finally:
            times["wall_s"] = time.perf_counter() - start
            times["cpu_s"] = cpu_s() - cpu
            times["peak_rss_mb"] = peak_rss_mb()
            times_path.write_text(json.dumps(times))
            if trace_path is not None:
                tracer.TRACER.dump(trace_path)
    if argv:
        print("usage: child.py TIMES [--trace FILE] [-- <rssloc argv...>]",
              file=sys.stderr)
        return 1
    times_path.write_text(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
