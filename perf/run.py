"""The benchmark's one command: one workload, one process, one result line.

::

    python3 perf/run.py --workload W --seed N --seconds S --trace 0|1
                        [--scale full|smoke] [--out PATH]

``--trace 0`` measures the end-to-end metrics over loopback TCP with tracing
off; ``--trace 1`` is the separate traced run that yields the per-layer
metrics (see :mod:`perf.traced`).  Either way every statement's result is
checked against :mod:`perf.check`, every metric is printed by name with its
unit, and the last line of standard output is one JSON object with exactly
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is non-zero when the program cannot be imported or a statement failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SOURCE = ROOT / "src"
#: scratch space inside the checkout (sqlite backends write temp databases)
WORK_DIR = PERF_DIR / ".work"
RESULTS_DIR = PERF_DIR / "results"
DEFAULT_SEED = 20180326


def _bootstrap() -> None:
    """Make ``repro`` and ``perf`` importable when run as a script."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.exit(f"perf: the program's sources are missing ({SOURCE / 'repro'})")
    for path in (str(SOURCE), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="also write the full report as JSON here")
    return parser.parse_args(argv)


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units this command must emit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(args: argparse.Namespace) -> dict:
    """Run one workload; returns the full report (see :func:`main`)."""
    from perf import harness
    from perf.workloads import SCALES, WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perf: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("perf: --seconds must be positive")
    workload = WORKLOADS[args.workload]
    harness.client_threads_allowed(workload)
    scale = SCALES[args.scale]

    WORK_DIR.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    tempfile.tempdir = work  # every temp file of the program lands in the checkout
    try:
        if args.trace:
            RESULTS_DIR.mkdir(exist_ok=True)
            from perf import traced
            report = traced.traced_run(
                workload, scale, args.seed, args.seconds,
                RESULTS_DIR / f"trace-{workload.name}.jsonl",
            )
        else:
            report = harness.end_to_end_run(workload, scale, args.seed, args.seconds)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
    report.update(
        workload=workload.name, seed=args.seed, seconds=args.seconds,
        trace=args.trace, scale=scale.name, claim=None,
    )
    return report


def result_line(report: dict, spec: dict) -> dict:
    """The contract's result object: every declared metric, nothing else."""
    declared = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in report["metrics"]:
            raise KeyError(f"the run did not measure the declared metric {name!r}")
        metrics[name] = {"value": report["metrics"][name], "unit": metric["unit"]}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    _bootstrap()
    spec = benchmark_spec()
    report = run(args)
    line = result_line(report, spec)
    for note in report.get("notes", ()):
        print(f"# {note}")
    for problem in report["problems"][:20]:
        print(f"! {problem}")
    width = max(len(name) for name in line["metrics"])
    for name, metric in line["metrics"].items():
        print(f"{name:<{width}}  {metric['value']:>14.6g} {metric['unit']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
