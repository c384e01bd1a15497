"""Repo-specific stdlib-``ast`` lint suite.

Six checkers police invariants the generic linters cannot express:

* :mod:`tools.lint.envknobs` — every ``REPRO_*`` environment variable is
  read through a strict parser (raises ``ConfigurationError`` on malformed
  values, never silently defaults) and is documented in ``docs/`` or the
  README, and every name those docs mention is read somewhere;
* :mod:`tools.lint.execguard` — ``exec``-generated kernel source appears
  only in the two vetted engine modules, pre-compiled, sandboxed with an
  empty ``__builtins__`` and assembled before the call site (never an
  inline literal);
* :mod:`tools.lint.gcguard` — nothing under ``src/`` calls a collector
  policy function (``gc.disable/enable/freeze/set_threshold/collect``): the
  engine keeps collections cheap through the shape of its heap, never
  through a process-global switch;
* :mod:`tools.lint.lockcheck` — classes registered as lock-guarded
  (``ExecutionStats``, the gateway cache/metrics) never mutate their
  attributes outside a ``with self._lock`` block;
* :mod:`tools.lint.deadnames` — every function, class and method defined
  under ``src/`` is mentioned somewhere else in the repository (code, tests,
  benchmark, tools or docs); decorator-registered, ``getattr``-dispatched,
  dunder and DB-API names are exempt by rule; and no ``src/`` module
  other than a package ``__init__`` imports a name it never uses;
* :mod:`tools.lint.modsize` — no module under ``src/`` is longer than
  1 500 lines.

Run everything with ``python tools/lint/run.py`` (exit 1 on findings);
``tests/test_lint.py`` gates the same checks in the tier-1 suite, and each
checker is unit-tested against seeded violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC = REPO_ROOT / "src"


@dataclass(frozen=True)
class Violation:
    """One finding: a file/line plus the rule-specific message."""

    path: str  # repo-relative, forward slashes
    line: int
    message: str

    def render(self) -> str:
        """``path:line: message`` (the conventional compiler format)."""
        return f"{self.path}:{self.line}: {self.message}"


def python_files(*roots: Path) -> list[Path]:
    """Every ``.py`` file under the given roots, sorted for stable output."""
    found: list[Path] = []
    for root in roots:
        found.extend(root.rglob("*.py"))
    return sorted(found)


def relative(path: Path) -> str:
    """Repo-relative, forward-slash form of ``path`` (for messages)."""
    return path.resolve().relative_to(REPO_ROOT).as_posix()
