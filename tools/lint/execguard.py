#!/usr/bin/env python3
"""Exec-kernel hygiene checker: generated code stays vetted and sandboxed.

The engine compiles typed batch kernels by assembling Python source from a
closed set of rendered fragments and ``exec``-ing it (see
``repro/engine/vector.py``).  That technique is safe exactly as long as
three properties hold, and this checker enforces them over ``src/``:

1. **Allowlist** — ``exec``/``eval`` builtins are called only in the
   vetted kernel-generation modules (``engine/vector.py`` and
   ``engine/columns.py``); anywhere else is a violation.
2. **Sandbox** — every ``exec`` call passes an explicit globals dict
   literal whose ``"__builtins__"`` entry is an empty dict literal, so
   generated source cannot reach ``open``/``__import__``/anything.
3. **Pre-assembled source** — the executed source goes through
   ``compile(source, <constant filename>, "exec")`` where ``source`` is a
   name or concatenation of names: the kernel text is assembled and
   reviewable *before* the call site, never an inline (f-)string literal
   interpolating runtime values at the ``exec`` itself.  The one accepted
   indirection is ``_kernel_code(source)`` — the module's own cached
   ``compile``: a module-level function of that name whose whole body is
   ``return compile(source, <constant filename>, "exec")``.

``eval`` is banned outright, including in the allowlisted files — nothing
in the engine needs expression evaluation with a result.

Run directly (``python tools/lint/execguard.py``) or via
``tools/lint/run.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

if __package__ in (None, ""):  # direct invocation: python tools/lint/execguard.py
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from lint import SRC, Violation, python_files, relative
else:
    from . import SRC, Violation, python_files, relative

#: the only modules allowed to generate-and-exec kernel source
ALLOWED = (
    "src/repro/engine/vector.py",
    "src/repro/engine/columns.py",
)


def _is_name_call(node: ast.AST, name: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    )


def _sandboxed_globals(node: ast.expr) -> bool:
    """Whether ``node`` is a dict literal with ``"__builtins__": {}``."""
    if not isinstance(node, ast.Dict):
        return False
    for key, value in zip(node.keys, node.values):
        if (
            isinstance(key, ast.Constant)
            and key.value == "__builtins__"
            and isinstance(value, ast.Dict)
            and not value.keys
        ):
            return True
    return False


def _assembled_source(node: ast.expr) -> bool:
    """Whether the compiled source is pre-assembled (names, not literals)."""
    if isinstance(node, ast.Name):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _assembled_source(node.left) and _assembled_source(node.right)
    return False


#: the one helper exec() may take its code object from instead of compile()
CODE_HELPER = "_kernel_code"


def _is_code_helper(node: ast.AST) -> bool:
    """Whether ``node`` defines :data:`CODE_HELPER` as nothing but
    ``return compile(<its one parameter>, <constant>, "exec")`` (a docstring
    and decorators, e.g. ``lru_cache``, are fine)."""
    if not (isinstance(node, ast.FunctionDef) and node.name == CODE_HELPER):
        return False
    parameters = node.args
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(parameters.args) != 1 or parameters.vararg or parameters.kwarg or len(body) != 1:
        return False
    returned = body[0].value if isinstance(body[0], ast.Return) else None
    return (
        _is_name_call(returned, "compile")
        and len(returned.args) == 3
        and isinstance(returned.args[0], ast.Name)
        and returned.args[0].id == parameters.args[0].arg
        and isinstance(returned.args[1], ast.Constant)
        and isinstance(returned.args[2], ast.Constant)
        and returned.args[2].value == "exec"
    )


def _check_exec_call(path: Path, node: ast.Call, has_helper: bool = False) -> list[Violation]:
    where = relative(path)
    problems: list[Violation] = []
    if len(node.args) < 2:
        problems.append(
            Violation(
                where,
                node.lineno,
                "exec() without an explicit globals dict inherits the "
                "caller's builtins; pass {'__builtins__': {}, ...}",
            )
        )
        return problems
    if not _sandboxed_globals(node.args[1]):
        problems.append(
            Violation(
                where,
                node.lineno,
                "exec() globals must be a dict literal containing "
                "'__builtins__': {} (empty dict literal) so generated "
                "kernels cannot reach the real builtins",
            )
        )
    source = node.args[0]
    if has_helper and _is_name_call(source, CODE_HELPER):
        if not (len(source.args) == 1 and _assembled_source(source.args[0])):
            problems.append(
                Violation(
                    where,
                    node.lineno,
                    f"{CODE_HELPER}() inside exec() must take pre-assembled "
                    "source (a variable, not an inline literal)",
                )
            )
    elif _is_name_call(source, "compile"):
        compile_call = source
        if not (
            compile_call.args
            and _assembled_source(compile_call.args[0])
            and len(compile_call.args) >= 2
            and isinstance(compile_call.args[1], ast.Constant)
        ):
            problems.append(
                Violation(
                    where,
                    node.lineno,
                    "compile() inside exec() must take pre-assembled source "
                    "(a variable, not an inline literal) and a constant "
                    "filename for tracebacks",
                )
            )
    else:
        problems.append(
            Violation(
                where,
                node.lineno,
                "exec() must execute compile(<assembled source>, "
                f"<constant filename>, 'exec') or the module's {CODE_HELPER}"
                "(<assembled source>) — never a raw string or another helper",
            )
        )
    return problems


def check(roots=None) -> list[Violation]:
    """Run all three rules over ``src/``; return every violation."""
    roots = roots if roots is not None else (SRC,)
    violations: list[Violation] = []
    for path in python_files(*roots):
        where = relative(path)
        allowed = where in ALLOWED
        tree = ast.parse(path.read_text(encoding="utf-8"))
        has_helper = any(map(_is_code_helper, tree.body))
        for node in ast.walk(tree):
            if _is_name_call(node, "eval"):
                violations.append(
                    Violation(
                        where,
                        node.lineno,
                        "eval() is banned repo-wide (no kernel needs it)",
                    )
                )
            elif _is_name_call(node, "exec"):
                if not allowed:
                    violations.append(
                        Violation(
                            where,
                            node.lineno,
                            "exec() outside the vetted kernel modules "
                            f"({', '.join(ALLOWED)})",
                        )
                    )
                else:
                    violations.extend(_check_exec_call(path, node, has_helper))
    return violations


def main() -> int:
    """CLI entry point: print findings, exit 1 when any exist."""
    violations = check()
    for violation in violations:
        print(violation.render())
    if violations:
        print(f"execguard: {len(violations)} violation(s)")
        return 1
    print("execguard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
