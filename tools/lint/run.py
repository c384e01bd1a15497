#!/usr/bin/env python3
"""Run every repo lint checker; exit non-zero if any finds a violation.

The CI ``lint`` job and ``tests/test_lint.py`` both come through here, so
one command reproduces either locally::

    python tools/lint/run.py

After the checkers it prints the line budget of ``src/`` — the total and
the ten largest modules — so every CI log shows where the code lives.  The
total is information; a module over the ``modsize`` limit is a violation.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct invocation: python tools/lint/run.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from lint import deadnames, envknobs, execguard, gcguard, lockcheck, modsize
else:
    from . import deadnames, envknobs, execguard, gcguard, lockcheck, modsize

CHECKERS = (
    ("envknobs", envknobs.check),
    ("execguard", execguard.check),
    ("gcguard", gcguard.check),
    ("lockcheck", lockcheck.check),
    ("deadnames", deadnames.check),
    ("modsize", modsize.check),
)


def line_budget(largest: int = 10) -> list[str]:
    """Report lines: the ``src/`` line total, then the ``largest`` modules."""
    sizes = modsize.module_lines()
    total = sum(lines for lines, _ in sizes)
    report = [f"line budget: src/ holds {total} lines in {len(sizes)} modules; largest:"]
    report.extend(f"  {lines:6d}  {path}" for lines, path in sizes[:largest])
    return report


def main() -> int:
    """Run all checkers, print per-checker results, exit 1 on findings."""
    failed = 0
    for name, checker in CHECKERS:
        violations = checker()
        if violations:
            failed += 1
            print(f"{name}: {len(violations)} violation(s)")
            for violation in violations:
                print(f"  {violation.render()}")
        else:
            print(f"{name}: OK")
    print("\n".join(line_budget()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
