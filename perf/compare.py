"""Compare two result sets of :mod:`perf.suite` under BENCHMARK.json's bounds.

::

    python3 perf/compare.py A.json B.json

One row per (end-to-end metric, workload): ``B``'s median against ``A``'s,
every ratio printed with its base.  Verdicts:

* ``unresolved`` — the run-to-run spread of either set is wider than the
  metric's bound, so the pair cannot be told apart;
* ``worse`` — ``B`` is worse than ``A`` by more than the bound;
* ``better`` — ``B`` is better than ``A`` by more than both sets' spread;
* ``ok`` — anything else.

Exits non-zero on any ``worse`` row or when ``B`` failed more statements.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list) -> float:
    """Relative spread of one metric's runs: IQR/median, or range/median
    when there are too few runs for quartiles."""
    import statistics

    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if not middle:
        return float("inf")
    if len(values) < 4:
        return (max(values) - min(values)) / middle
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / middle


def verdict(metric: dict, base: dict, new: dict) -> tuple[str, float, float]:
    """``(verdict, new/base ratio, wider spread)`` for one metric on one workload."""
    ratio = new["median"] / base["median"]
    wider = max(spread(base["values"]), spread(new["values"]))
    change = ratio - 1.0 if metric["better"] == "lower" else 1.0 - ratio
    if wider > metric["bound"]:
        return "unresolved", ratio, wider
    if change > metric["bound"]:
        return "worse", ratio, wider
    if -change > wider:
        return "better", ratio, wider
    return "ok", ratio, wider


def compare(spec: dict, base: dict, new: dict) -> tuple[list, bool]:
    """All rows plus whether the comparison passes."""
    rows = []
    passed = True
    for workload in spec["workloads"]:
        name = workload["name"]
        if name not in base["workloads"] or name not in new["workloads"]:
            continue
        left, right = base["workloads"][name], new["workloads"][name]
        for metric in spec["end_to_end"]:
            entry = metric["name"]
            outcome, ratio, wider = verdict(
                metric, left["end_to_end"][entry], right["end_to_end"][entry]
            )
            passed = passed and outcome != "worse"
            rows.append((name, entry, outcome, ratio, wider, metric,
                         left["end_to_end"][entry], right["end_to_end"][entry]))
        base_failed = left["failed"] / max(1, left["attempted"])
        new_failed = right["failed"] / max(1, right["attempted"])
        if new_failed > base_failed:
            passed = False
            rows.append((name, "failed_frac", "worse", float("inf"), 0.0, None,
                         {"median": base_failed}, {"median": new_failed}))
    return rows, passed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    rows, passed = compare(spec, base, new)
    for name, entry, outcome, ratio, wider, metric, left, right in rows:
        bound = f"bound {metric['bound']:.0%}, spread {wider:.1%}" if metric else ""
        unit = left.get("unit", "")
        print(
            f"{name:<20} {entry:<20} {outcome:<10} "
            f"{right['median']:.5g} / {left['median']:.5g} {unit} = {ratio:.3f}  {bound}"
        )
    counts: dict[str, int] = {}
    for row in rows:
        counts[row[2]] = counts.get(row[2], 0) + 1
    print(", ".join(f"{count} {outcome}" for outcome, count in sorted(counts.items())))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
