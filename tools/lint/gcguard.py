#!/usr/bin/env python3
"""Collector-policy checker: the library never switches the cycle collector.

The engine keeps the cycle collector cheap through the *shape* of its heap
— DATE cells are untracked ``datetime.date`` objects, join intermediates
reference rows instead of copying them (``docs/engine.md``) — and never
through a process-global switch: ``gc.disable()`` / ``gc.freeze()`` /
``gc.set_threshold()`` inside a library change the embedding application's
pauses (rarer but larger), and ``gc.collect()`` / ``gc.enable()`` calls are
how such a switch creeps back in.  Any call of those five under ``src/`` is
a violation, however ``gc`` was imported (``import gc``, ``import gc as g``,
``from gc import disable``).  Reading the collector (``gc.is_tracked``,
``gc.get_objects``, ``gc.callbacks``) stays allowed — tests and the
benchmark measure with it.

Run directly (``python tools/lint/gcguard.py``) or via
``tools/lint/run.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

if __package__ in (None, ""):  # direct invocation: python tools/lint/gcguard.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from lint import SRC, Violation, python_files, relative
else:
    from . import SRC, Violation, python_files, relative

#: the collector-policy calls a library must not make
BANNED = frozenset({"disable", "enable", "freeze", "set_threshold", "collect"})


def _policy_call(node: ast.Call, modules: set[str], functions: dict[str, str]):
    """The banned ``gc`` function ``node`` calls, or ``None``."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in modules
        and func.attr in BANNED
    ):
        return func.attr
    if isinstance(func, ast.Name):
        return functions.get(func.id)
    return None


def check(roots=None) -> list[Violation]:
    """Find every collector-policy call under ``src/``."""
    roots = roots if roots is not None else (SRC,)
    violations: list[Violation] = []
    for path in python_files(*roots):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules: set[str] = set()  # names bound to the gc module
        functions: dict[str, str] = {}  # local name -> banned gc function
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name == "gc"
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "gc":
                functions.update(
                    (alias.asname or alias.name, alias.name)
                    for alias in node.names
                    if alias.name in BANNED
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = _policy_call(node, modules, functions)
                if name is not None:
                    violations.append(
                        Violation(
                            relative(path),
                            node.lineno,
                            f"gc.{name}() is a process-global collector policy; "
                            "a library must keep the collector cheap through "
                            "the shape of its heap instead",
                        )
                    )
    return sorted(violations, key=lambda violation: (violation.path, violation.line))


def main() -> int:
    """CLI entry point: print findings, exit 1 when any exist."""
    violations = check()
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"gcguard: {len(violations)} violation(s)")
        return 1
    print("gcguard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
