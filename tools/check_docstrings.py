#!/usr/bin/env python3
"""Doc-coverage check for the public API surface.

Walks the configured modules with :mod:`ast` (no imports, so it runs in any
environment) and requires a docstring on

* the module itself,
* every public class,
* every public function and method.

"Public" means the name does not start with ``_`` and the definition is not
nested inside a function; ``__init__`` is exempt (the class docstring covers
construction — the same policy as ``interrogate --ignore-init-method``).
Run directly (``python tools/check_docstrings.py``) or through
``tests/test_docs.py``; exits non-zero listing every undocumented
definition.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: the public entry-point modules held to full doc coverage
PUBLIC_MODULES = (
    "repro/result.py",
    "repro/errors.py",
    "repro/api/__init__.py",
    "repro/api/connection.py",
    "repro/api/cursor.py",
    "repro/backends/__init__.py",
    "repro/backends/base.py",
    "repro/backends/engine.py",
    "repro/backends/sqlite.py",
    "repro/backends/sharded.py",
    "repro/cluster/__init__.py",
    "repro/cluster/placement.py",
    "repro/cluster/planner.py",
    "repro/cluster/coordinator.py",
    "repro/compile/__init__.py",
    "repro/compile/analysis.py",
    "repro/compile/artifact.py",
    "repro/compile/compiler.py",
    "repro/compile/cost.py",
    "repro/compile/explain.py",
    "repro/compile/passes.py",
    "repro/compile/stats.py",
    "repro/compile/typecheck.py",
    "repro/core/middleware.py",
    "repro/core/client.py",
    "repro/gateway/__init__.py",
    "repro/gateway/gateway.py",
    "repro/gateway/session.py",
    "repro/gateway/cache.py",
    "repro/gateway/executor.py",
    "repro/gateway/fingerprint.py",
    "repro/server/__init__.py",
    "repro/server/protocol.py",
    "repro/server/config.py",
    "repro/server/admission.py",
    "repro/server/server.py",
    "repro/server/client.py",
    "repro/server/loopback.py",
    "repro/engine/columns.py",
    "repro/engine/vector.py",
    "repro/engine/planner.py",
    "repro/mth/loader.py",
    "repro/sql/dialect.py",
    "repro/sql/types.py",
    "repro/sql/params.py",
    "repro/sql/transform.py",
)


def _needs_docstring(node: ast.AST) -> bool:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return not node.name.startswith("_")
    if isinstance(node, ast.ClassDef):
        return not node.name.startswith("_")
    return False


def _missing_in(tree: ast.Module, module_label: str) -> list[str]:
    missing: list[str] = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{module_label}: module docstring")

    def visit(body: list[ast.stmt], prefix: str) -> None:
        for node in body:
            if not _needs_docstring(node):
                continue
            label = f"{prefix}{node.name}"  # type: ignore[attr-defined]
            if ast.get_docstring(node) is None:  # type: ignore[arg-type]
                missing.append(f"{module_label}: {label}")
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{label}.")

    visit(tree.body, "")
    return missing


def check() -> list[str]:
    """Return every undocumented public definition (empty = fully covered)."""
    missing: list[str] = []
    for relative in PUBLIC_MODULES:
        path = SRC / relative
        if not path.exists():
            missing.append(f"{relative}: module not found (update PUBLIC_MODULES)")
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        missing.extend(_missing_in(tree, relative))
    return missing


def main() -> int:
    missing = check()
    if missing:
        print(f"doc coverage: {len(missing)} undocumented public definition(s)")
        for entry in missing:
            print(f"  - {entry}")
        return 1
    print(f"doc coverage: OK ({len(PUBLIC_MODULES)} modules fully documented)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
