#!/usr/bin/env python3
"""Module-size checker: no ``src/`` module is longer than :data:`LIMIT` lines.

A module past the limit holds more than one seam; split it along one, or
shrink it, instead of raising the limit.  The line counts are the ones the
line budget of ``tools/lint/run.py`` prints, so a CI log shows the headroom
of the largest modules next to the verdict.

Run directly (``python tools/lint/modsize.py``) or via
``tools/lint/run.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct invocation: python tools/lint/modsize.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from lint import SRC, Violation, python_files, relative
else:
    from . import SRC, Violation, python_files, relative

#: the most lines one ``src/`` module may hold
LIMIT = 1500


def module_lines(roots=None) -> list[tuple[int, str]]:
    """``(lines, repo-relative path)`` of every module, largest first."""
    roots = roots if roots is not None else (SRC,)
    return sorted(
        ((len(path.read_bytes().splitlines()), relative(path)) for path in python_files(*roots)),
        key=lambda entry: (-entry[0], entry[1]),
    )


def check(roots=None, limit: int = LIMIT) -> list[Violation]:
    """One violation per module over ``limit`` lines."""
    return [
        Violation(path, lines, f"{lines} lines, over the {limit}-line module limit; split it")
        for lines, path in module_lines(roots)
        if lines > limit
    ]


def main() -> int:
    """CLI entry point: print findings, exit 1 when any exist."""
    violations = check()
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"modsize: {len(violations)} violation(s)")
        return 1
    print("modsize: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
