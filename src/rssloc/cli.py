"""Command-line front end: dataset generation, pipeline runs, stand-alone
evaluation of externally produced coordinates, and static map renders.

Exit codes: 0 success, 1 usage error, 2 data error, 3 completed with
per-scenario failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from . import dataset_io, pipeline, render
from .dataset_io import DatasetConfig, predictions_from_csv
from .localize import ESTIMATORS
from .metrics import aggregate, evaluate_scenario
from .pipeline import LOCAL_MAPS, PipelineConfig, PipelineConfigError
from .scenario import GenerationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    # an unknown option is an error, not a prefix of a known one (--r of
    # --reconstructor, --interval of --intervals)
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _registry_epilog() -> str:
    return ("registered reconstructors: " + ", ".join(LOCAL_MAPS)
            + "\nregistered estimators: " + ", ".join(sorted(ESTIMATORS)))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rssloc",
                     description="Multi-transmitter RSS localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("generate", help="generate a dataset from a JSON config")
    gen.add_argument("--config", required=True, help="JSON config file")
    gen.add_argument("--out", required=True, help="output dataset directory")
    gen.add_argument("--seed", type=int, default=None, help="override config seed")

    # an option left out is left out of the namespace, so that the
    # PipelineConfig default applies
    pipe = sub.add_parser("pipeline", help="run the localization pipeline",
                          epilog=_registry_epilog(),
                          formatter_class=argparse.RawDescriptionHelpFormatter,
                          argument_default=argparse.SUPPRESS)
    pipe.add_argument("--dataset", required=True)
    pipe.add_argument("--out", required=True)
    pipe.add_argument("--reconstructor")
    pipe.add_argument("--estimator")
    pipe.add_argument("--intervals",
                      help="comma-separated subset, e.g. 1,4,10")
    pipe.add_argument("--noise-sigma", type=float)
    pipe.add_argument("--noise-seed", type=int)
    pipe.add_argument("--local-map-dir",
                      help="drop-in directory of externally produced local maps, "
                           "read by the oracle reconstructor")
    pipe.add_argument("--jobs", type=int)

    ev = sub.add_parser("evaluate",
                        help="evaluate externally produced prediction CSVs")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--predictions", required=True,
                    help="directory of <scenario>_<interval>.csv files")
    ev.add_argument("--out", default=None, help="report JSON path")

    ren = sub.add_parser("render", help="render a map with truth/prediction marks")
    ren.add_argument("--map", required=True, help="bitmap PGM to render")
    ren.add_argument("--layout", required=True, help="building layout PGM")
    ren.add_argument("--scenario", default=None, help="scenario JSON for truths")
    ren.add_argument("--pred", default=None, help="predictions CSV")
    ren.add_argument("--out", required=True, help="output PPM path")
    return parser


def cmd_generate(args) -> int:
    config_path = Path(args.config)
    if not config_path.is_file():
        raise FileNotFoundError(f"config file not found: {config_path}")
    try:
        doc = json.loads(config_path.read_text())
        # from_dict names a document that is no object
        if args.seed is not None and isinstance(doc, dict):
            doc["seed"] = args.seed
        config = DatasetConfig.from_dict(doc)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad config: {exc}") from None
    index = dataset_io.generate_dataset(config, args.out)
    print(f"wrote {len(index['entries'])} scenarios to {args.out}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    given = {key: value for key, value in vars(args).items()
             if key not in ("command", "dataset", "out")}
    if "intervals" in given:
        # an empty value means every interval, as leaving the option out does
        text = given["intervals"]
        given["intervals"] = (tuple(part.strip() for part in text.split(","))
                              if text else None)
    report = pipeline.run_pipeline(args.dataset, PipelineConfig(**given),
                                   out_dir=args.out)
    print(pipeline.format_report_table(report))
    for err in report["errors"]:
        print(f"failed: {err['id']} interval {err['interval']}: {err['error']}",
              file=sys.stderr)
    return EXIT_PARTIAL if report["errors"] else EXIT_OK


def cmd_evaluate(args) -> int:
    index = dataset_io.read_dataset_index(args.dataset)
    pred_dir = Path(args.predictions)
    if not pred_dir.is_dir():
        raise FileNotFoundError(f"predictions directory not found: {pred_dir}")
    rows, evals = [], []
    for entry in sorted(index["entries"], key=lambda e: e["id"]):
        truths = dataset_io.load_scenario(args.dataset, entry).true_points()
        # the files the pipeline writes for the entry's intervals, in its order
        for interval in sorted(entry["samples"], key=float):
            name = f"{entry['id']}_{interval}.csv"
            if (pred_dir / name).is_file():
                _, points, _ = dataset_io.parse_file(pred_dir / name,
                                                     predictions_from_csv)
                ev = evaluate_scenario(points, truths)
                evals.append(ev)
                rows.append({"id": entry["id"], "interval": interval,
                             **asdict(ev)})
    if not rows:
        raise FileNotFoundError("no prediction files matched the dataset")
    report = {"results": rows, "aggregate": asdict(aggregate(evals))}
    text = dataset_io.dumps_json(report)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return EXIT_OK


def cmd_render(args) -> int:
    bitmap = dataset_io.read_pgm(args.map)
    layout = dataset_io.read_pgm(args.layout)
    truths, preds = [], []
    if args.scenario:
        # the pair of files a dataset entry names
        entry = {"layout": args.layout, "scenario": args.scenario}
        truths = dataset_io.load_scenario("", entry).true_points()
    if args.pred:
        _, preds, _ = dataset_io.parse_file(args.pred, predictions_from_csv)
    rgb = render.render_map(bitmap, layout, truths, preds)
    Path(args.out).write_bytes(render.encode_ppm(rgb))
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command: the one place where an error becomes an exit code, its
    message one stderr line. Exception types not caught here are bugs."""
    args = build_parser().parse_args(argv)
    handler = {"generate": cmd_generate, "pipeline": cmd_pipeline,
               "evaluate": cmd_evaluate, "render": cmd_render}[args.command]
    try:
        return handler(args)
    except PipelineConfigError as exc:    # a ValueError, so caught first
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, GenerationError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
