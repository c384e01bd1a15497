#!/usr/bin/env python3
"""Lock-discipline checker for the registered shared-mutable classes.

The server runs many sessions against one backend, so a handful of
classes are mutated from concurrent threads and guard themselves with a
``self._lock``.  The invariant is easy to state and easy to silently break
in review: **every attribute mutation after construction happens inside a
``with self._lock`` block**.  This checker enforces it with :mod:`ast`
over an explicit registry — the classes whose docstrings promise
thread-safe counters/caches:

* ``repro/result.py`` — ``ExecutionStats``
* ``repro/gateway/cache.py`` — ``RewriteCache``
* ``repro/server/admission.py`` — ``LoadGauge``, ``TenantGate``,
  ``AdmissionController``

Flagged: ``self.x = ...``, ``self.x += ...`` and item stores
``self.x[k] = ...`` in any method other than ``__init__`` /
``__post_init__`` that is not lexically inside ``with self._lock``.
Reads are deliberately not flagged — the registered classes use
copy-on-write or tolerate stale reads by design; it is lost *updates*
the lock exists to prevent.

Run directly (``python tools/lint/lockcheck.py``) or via
``tools/lint/run.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

if __package__ in (None, ""):  # direct invocation: python tools/lint/lockcheck.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from lint import SRC, Violation, relative
else:
    from . import SRC, Violation, relative

#: (repo-relative module, class name) pairs held to the lock discipline
GUARDED_CLASSES = (
    ("repro/result.py", "ExecutionStats"),
    ("repro/gateway/cache.py", "RewriteCache"),
    ("repro/server/admission.py", "LoadGauge"),
    ("repro/server/admission.py", "TenantGate"),
    ("repro/server/admission.py", "AdmissionController"),
)

#: methods that run before the object is shared (no lock needed)
CONSTRUCTION = {"__init__", "__post_init__"}

LOCK_ATTRIBUTE = "_lock"


def _is_self_attribute(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def _mutated_attribute(target: ast.AST):
    """The ``self.<attr>`` a store target mutates, or ``None``.

    Plain attribute stores and item stores on an attribute both count
    (``self.x = v``, ``self.x[k] = v``); deeper chains reduce to their
    ``self.<attr>`` root.
    """
    node = target
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        if _is_self_attribute(node):
            return node.attr
        node = node.value
    return None


def _is_lock_context(with_node: ast.With) -> bool:
    for item in with_node.items:
        expr = item.context_expr
        if _is_self_attribute(expr) and expr.attr == LOCK_ATTRIBUTE:
            return True
    return False


def _check_method(where: str, class_name: str, method: ast.FunctionDef):
    violations: list[Violation] = []

    def visit(node: ast.AST, locked: bool) -> None:
        if isinstance(node, ast.With) and _is_lock_context(node):
            locked = True
        targets: list[ast.AST] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            attribute = _mutated_attribute(target)
            if attribute is not None and attribute != LOCK_ATTRIBUTE and not locked:
                violations.append(
                    Violation(
                        where,
                        node.lineno,
                        f"{class_name}.{method.name} mutates self."
                        f"{attribute} outside 'with self.{LOCK_ATTRIBUTE}' "
                        f"— concurrent sessions can lose the update",
                    )
                )
        for child in ast.iter_child_nodes(node):
            visit(child, locked)

    for statement in method.body:
        visit(statement, False)
    return violations


def check(registry=GUARDED_CLASSES) -> list[Violation]:
    """Run the lock rule over every registered class."""
    violations: list[Violation] = []
    for module, class_name in registry:
        path = SRC / module
        if not path.exists():
            violations.append(
                Violation(module, 1, f"registered module missing: {module}")
            )
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = relative(path)
        found = False
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                found = True
                for item in node.body:
                    if (
                        isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name not in CONSTRUCTION
                    ):
                        violations.extend(_check_method(where, class_name, item))
        if not found:
            violations.append(
                Violation(
                    where,
                    1,
                    f"registered class missing: {class_name} (update "
                    f"GUARDED_CLASSES in tools/lint/lockcheck.py)",
                )
            )
    return violations


def main() -> int:
    """CLI entry point: print findings, exit 1 when any exist."""
    violations = check()
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"lockcheck: {len(violations)} violation(s)")
        return 1
    print(f"lockcheck: OK ({len(GUARDED_CLASSES)} classes clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
