#!/usr/bin/env python3
"""Run every repo lint checker; exit non-zero if any finds a violation.

The CI ``lint`` job and ``tests/test_lint.py`` both come through here, so
one command reproduces either locally::

    python tools/lint/run.py
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct invocation: python tools/lint/run.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from lint import envknobs, execguard, gcguard, lockcheck
else:
    from . import envknobs, execguard, gcguard, lockcheck

CHECKERS = (
    ("envknobs", envknobs.check),
    ("execguard", execguard.check),
    ("gcguard", gcguard.check),
    ("lockcheck", lockcheck.check),
)


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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
