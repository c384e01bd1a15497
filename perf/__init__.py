"""perf — the repo's benchmark: served MT-H workloads measured from outside.

``python3 perf/run.py --workload W --seed N --seconds S --trace 0|1`` is the
one command (see ``BENCHMARK.json`` and ``perf/README.md``).  Nothing in
``src/repro`` imports this package.
"""
