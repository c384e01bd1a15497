#!/usr/bin/env python3
"""Dead-name checker: nothing under ``src/`` is defined and never mentioned.

A module-level function, a class or a method whose name occurs nowhere but
at its own ``def`` / ``class`` line — not in ``src/``, ``tests/``, ``perf/``,
``benchmarks/``, ``examples/``, ``tools/`` or ``docs/`` — is code nobody
calls, tests or documents: a back-compat wrapper that outlived its callers,
a helper a refactor orphaned.  It fails the lint; delete it (or use it).

The test is textual on purpose: an identifier token anywhere in those trees
(a call, an import, a string, a docs page) counts as a mention, so dynamic
uses only need to *spell* the name somewhere.  Definitions reached without
ever being spelled are exempt by rule:

* dunder names — the interpreter calls them,
* a class or function decorated by something ``src/`` itself defines:
  the decorator is its caller,
* a name some ``getattr(obj, f"prefix{...}")`` in ``src/`` can build
  (``_compile_<node>`` / ``_infer_<node>`` dispatch targets),
* public names of the ``repro.api`` package: PEP 249 fixes that surface.

Run directly (``python tools/lint/deadnames.py``) or via
``tools/lint/run.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

if __package__ in (None, ""):  # direct invocation: python tools/lint/deadnames.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from lint import REPO_ROOT, SRC, Violation, python_files, relative
else:
    from . import REPO_ROOT, SRC, Violation, python_files, relative

#: where a mention keeps a name alive
MENTION_ROOTS = tuple(
    REPO_ROOT / name
    for name in ("src", "tests", "perf", "benchmarks", "examples", "tools", "docs")
)
DB_API_PACKAGE = ("repro", "api")

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """Module-level functions, classes and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, _DEFINITIONS):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body if isinstance(item, _DEFINITIONS))


def _decorator_names(node) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _dispatch_prefixes(tree: ast.Module) -> set[str]:
    """Leading constants of the f-strings ``getattr`` is called with."""
    prefixes = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.JoinedStr)
        ):
            first = node.args[1].values[0]
            if isinstance(first, ast.Constant) and first.value:
                prefixes.add(first.value)
    return prefixes


def check(roots=None, mention_roots=None) -> list[Violation]:
    """Find every definition under ``roots`` that is never mentioned."""
    roots = roots if roots is not None else (SRC,)
    mention_roots = mention_roots if mention_roots is not None else MENTION_ROOTS
    mentions: Counter = Counter()
    for root in mention_roots:
        for path in sorted(root.rglob("*")):
            if path.suffix in (".py", ".md") and path.is_file():
                mentions.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))

    defined: list[tuple[Path, ast.AST]] = []
    prefixes: set[str] = set()
    for path in python_files(*roots):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        prefixes |= _dispatch_prefixes(tree)
        defined.extend((path, node) for node in _definitions(tree))
    times_defined = Counter(node.name for _, node in defined)

    violations: list[Violation] = []
    for path, node in defined:
        name = node.name
        if mentions[name] > times_defined[name]:
            continue
        if name.startswith("__") and name.endswith("__"):
            continue
        if any(times_defined[decorator] for decorator in _decorator_names(node)):
            continue
        if any(name.startswith(prefix) for prefix in prefixes):
            continue
        package = path.parts[-len(DB_API_PACKAGE) - 1 : -1]
        if package == DB_API_PACKAGE and not name.startswith("_"):
            continue
        violations.append(
            Violation(
                relative(path),
                node.lineno,
                f"{name} is defined but mentioned nowhere in src/, tests/, perf/, "
                f"benchmarks/, examples/, tools/ or docs/ — delete it",
            )
        )
    return violations


def main() -> int:
    """CLI entry point: print findings, exit 1 when any exist."""
    violations = check()
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"deadnames: {len(violations)} violation(s)")
        return 1
    print("deadnames: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
