#!/usr/bin/env python3
"""Env-knob checker: every ``REPRO_*`` variable is strict and documented.

The repo's configuration contract (followed by every layer that reads
one): an environment knob is read inside a small
parser function that raises :class:`repro.errors.ConfigurationError` on any
malformed value — never ``or default`` / ``== "1"`` leniency, because a
mistyped knob that silently falls back to its default runs the wrong
experiment and reports it as the right one.

Three rules, enforced over ``src/`` and ``benchmarks/`` with :mod:`ast`:

1. **Strict parse** — every read of a ``REPRO_*`` variable
   (``os.environ.get``, ``os.getenv``, ``os.environ[...]``) must sit inside
   a function whose body raises ``ConfigurationError``.  Membership probes
   (``"X" in os.environ``) are exempt: a probe cannot misparse a value.
2. **Documented** — every ``REPRO_*`` name that reaches a parser must
   appear in ``README.md`` or somewhere under ``docs/``.
3. **Live** — every full ``REPRO_*`` name mentioned in ``README.md`` or
   ``docs/`` must be read in ``src/`` or ``benchmarks/``; a retired knob
   belongs in ``CHANGES.md``, not in the user-facing docs.  A family
   wildcard (``REPRO_SERVER_*``) is exempt.

Run directly (``python tools/lint/envknobs.py``) or via
``tools/lint/run.py``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

if __package__ in (None, ""):  # direct invocation: python tools/lint/envknobs.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from lint import REPO_ROOT, SRC, Violation, python_files, relative
else:
    from . import REPO_ROOT, SRC, Violation, python_files, relative

BENCHMARKS = REPO_ROOT / "benchmarks"
DOC_ROOTS = (REPO_ROOT / "README.md", REPO_ROOT / "docs")

PREFIX = "REPRO_"
#: a full knob name in prose; a trailing ``*`` marks a family wildcard
DOC_NAME = re.compile(r"\bREPRO_[A-Z0-9_]*[A-Z0-9](?![A-Z0-9_]*\*)\b")


def _is_environ(node: ast.AST) -> bool:
    """Whether ``node`` is the ``os.environ`` attribute chain."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _env_read_key(node: ast.AST):
    """The key of an environment *value read*, or ``None``.

    Returns the constant key string, or ``...`` (Ellipsis) for a read whose
    key is dynamic (a variable).  Membership probes are not reads.
    """
    if isinstance(node, ast.Call):
        target = node.func
        # os.environ.get(key[, default])
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "get"
            and _is_environ(target.value)
            and node.args
        ):
            return _key_of(node.args[0])
        # os.getenv(key[, default])
        if (
            isinstance(target, ast.Attribute)
            and target.attr == "getenv"
            and isinstance(target.value, ast.Name)
            and target.value.id == "os"
            and node.args
        ):
            return _key_of(node.args[0])
    # os.environ[key]
    if isinstance(node, ast.Subscript) and _is_environ(node.value):
        return _key_of(node.slice)
    return None


def _key_of(node: ast.AST):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ...


def _raises_configuration_error(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "ConfigurationError":
                return True
            if isinstance(exc, ast.Attribute) and exc.attr == "ConfigurationError":
                return True
    return False


def _referenced_names(tree: ast.Module) -> set[str]:
    """Every ``REPRO_*`` string constant in the module (for the doc check)."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.startswith(PREFIX)
            and node.value.replace("_", "").isalnum()
            and node.value == node.value.upper()
        ):
            names.add(node.value)
    return names


def _check_module(path: Path) -> tuple[list[Violation], set[str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    violations: list[Violation] = []

    # map every node to its innermost enclosing function
    enclosing: dict[ast.AST, ast.AST] = {}

    def assign(owner, node):
        for child in ast.iter_child_nodes(node):
            scope = node if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) else owner
            enclosing[child] = scope
            assign(scope, child)

    assign(None, tree)

    for node in ast.walk(tree):
        key = _env_read_key(node)
        if key is None:
            continue
        if isinstance(key, str) and not key.startswith(PREFIX):
            continue
        label = key if isinstance(key, str) else "<dynamic key>"
        function = enclosing.get(node)
        if function is None:
            violations.append(
                Violation(
                    relative(path),
                    node.lineno,
                    f"{label} read at module level; wrap it in a strict "
                    f"parser function that raises ConfigurationError",
                )
            )
        elif not _raises_configuration_error(function):
            violations.append(
                Violation(
                    relative(path),
                    node.lineno,
                    f"{label} read in {function.name}() which never raises "
                    f"ConfigurationError; malformed values would silently "
                    f"fall back to the default",
                )
            )
    return violations, _referenced_names(tree)


def _doc_texts(doc_roots) -> dict[Path, str]:
    """Every documentation page under ``doc_roots`` and its text."""
    pages: list[Path] = []
    for root in doc_roots:
        if root.is_file():
            pages.append(root)
        elif root.is_dir():
            pages.extend(sorted(root.rglob("*.md")))
    return {page: page.read_text(encoding="utf-8") for page in pages}


def check(roots=None, doc_roots=DOC_ROOTS) -> list[Violation]:
    """Run the three rules; return every violation (empty = clean)."""
    roots = roots if roots is not None else (SRC, BENCHMARKS)
    violations: list[Violation] = []
    referenced: dict[str, tuple[str, int]] = {}
    for path in python_files(*roots):
        found, names = _check_module(path)
        violations.extend(found)
        for name in names:
            referenced.setdefault(name, (relative(path), 1))
    texts = _doc_texts(doc_roots)
    documentation = "\n".join(texts.values())
    for name in sorted(referenced):
        if name not in documentation:
            where, line = referenced[name]
            violations.append(
                Violation(
                    where,
                    line,
                    f"{name} is read but never documented in README.md or "
                    f"docs/ — add it to the environment-variable table",
                )
            )
    mentioned: set[str] = set()
    for page, text in texts.items():
        for number, line in enumerate(text.splitlines(), start=1):
            for name in DOC_NAME.findall(line):
                if name not in referenced and name not in mentioned:
                    mentioned.add(name)
                    violations.append(
                        Violation(
                            relative(page),
                            number,
                            f"{name} is documented but never read in src/ or "
                            f"benchmarks/ — drop the stale mention",
                        )
                    )
    return violations


def main() -> int:
    """CLI entry point: print findings, exit 1 when any exist."""
    violations = check()
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"envknobs: {len(violations)} violation(s)")
        return 1
    print("envknobs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
