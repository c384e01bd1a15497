"""Run a full set: every workload, round-robin, each in its own process.

::

    python3 perf/suite.py [--repeat K] [--seed N] [--seconds S] [--traced]
                          [--workloads a,b] [--vary-seed] [--out PATH]

``--repeat K`` plays the workloads A,B,C,D,E,A,B,... K times so machine-speed
drift hits every workload alike, and reports each metric's median with its
min and max.  ``--vary-seed`` gives repetition *i* the seed ``seed + i`` (the
way the acceptance procedure measures spread).  ``--traced`` adds one traced
run per workload at the end.  The set is written to
``perf/results/<run>.json`` (or ``--out``) for :mod:`perf.compare`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
RESULTS_DIR = PERF_DIR / "results"


def run_once(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """One ``perf/run.py`` subprocess; its parsed result line."""
    command = [
        sys.executable, str(PERF_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--scale", scale,
    ]
    began = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - began
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: no output (exit {done.returncode})\n{done.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = done.returncode
    result["process_wall_s"] = wall
    result["seed"] = seed
    return result


def summarize(runs: list) -> dict:
    """Median, min and max of every metric over one workload's runs."""
    import statistics

    summary = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seed", type=int, default=20180326)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    chosen = [name for name in args.workloads.split(",") if name]

    runs: dict[str, list] = {name: [] for name in chosen}
    traced: dict[str, dict] = {}
    for repetition in range(args.repeat):
        seed = args.seed + repetition if args.vary_seed else args.seed
        for name in chosen:
            result = run_once(name, seed, args.seconds, 0, args.scale)
            runs[name].append(result)
            print(
                f"[{repetition + 1}/{args.repeat}] {name}: exit {result['exit_code']}, "
                f"{result['failed']}/{result['attempted']} failed, "
                f"{result['process_wall_s']:.1f} s",
                flush=True,
            )
    if args.traced:
        for name in chosen:
            traced[name] = run_once(name, args.seed, args.seconds, 1, args.scale)
            print(f"[traced] {name}: {traced[name]['process_wall_s']:.1f} s", flush=True)

    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "repeat": args.repeat,
        "workloads": {
            name: {
                "end_to_end": summarize(runs[name]),
                "attempted": sum(run["attempted"] for run in runs[name]),
                "failed": sum(run["failed"] for run in runs[name]),
                "per_layer": {
                    metric: value["value"]
                    for metric, value in traced.get(name, {}).get("metrics", {}).items()
                },
            }
            for name in chosen
        },
        "claim": None,
    }
    for name in chosen:
        print(f"\n{name}")
        for metric, entry in report["workloads"][name]["end_to_end"].items():
            print(
                f"  {metric:<22} {entry['median']:>12.5g} {entry['unit']:<8}"
                f" (min {entry['min']:.5g}, max {entry['max']:.5g})"
            )
    out = Path(args.out) if args.out else RESULTS_DIR / time.strftime("set-%Y%m%d-%H%M%S.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(f"\nwrote {out}")
    failed = sum(entry["failed"] for entry in report["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
