"""The repo lint suite: green on the repo, and each rule catches a seed.

Gates ``tools/lint/`` into tier-1 twice over: the five checkers must find
nothing in the repository as committed (the same result the CI ``lint``
job enforces), and each rule must still *detect* a seeded violation — a
checker that silently stopped matching would otherwise stay green
forever.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

from lint import Violation, deadnames, envknobs, execguard, gcguard, lockcheck  # noqa: E402


def _write(tmp_path: Path, name: str, source: str) -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


@pytest.fixture
def local_paths(monkeypatch, tmp_path):
    """Point every checker's path rendering at the tmp dir.

    The checkers render repo-relative paths; seeded files live outside the
    repo, so the test swaps ``relative`` for the bare file name.
    """
    for module in (deadnames, envknobs, execguard, gcguard, lockcheck):
        monkeypatch.setattr(module, "relative", lambda path: path.name)
    return tmp_path


# ---------------------------------------------------------------------------
# the repository itself is clean (what the CI lint job enforces)
# ---------------------------------------------------------------------------


def test_envknobs_clean_on_repo():
    assert envknobs.check() == []


def test_execguard_clean_on_repo():
    assert execguard.check() == []


def test_gcguard_clean_on_repo():
    assert gcguard.check() == []


def test_lockcheck_clean_on_repo():
    assert lockcheck.check() == []


def test_deadnames_clean_on_repo():
    assert deadnames.check() == []


def test_lint_runner_exits_zero():
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "lint" / "run.py")],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    for name in ("envknobs", "execguard", "gcguard", "lockcheck", "deadnames"):
        assert f"{name}: OK" in completed.stdout
    # the informational line budget: the src/ total and the ten largest modules
    budget = completed.stdout[completed.stdout.index("line budget: src/ holds ") :]
    assert len(budget.splitlines()) == 11 and "src/repro/engine/vector.py" in budget


def test_violation_renders_compiler_style():
    assert Violation("a/b.py", 7, "boom").render() == "a/b.py:7: boom"


# ---------------------------------------------------------------------------
# envknobs: lenient or undocumented REPRO_* reads are caught
# ---------------------------------------------------------------------------


def test_envknobs_flags_module_level_read(local_paths):
    _write(
        local_paths,
        "bad_module_level.py",
        """
        import os

        FLAG = os.environ.get("REPRO_ENGINE_TYPED", "1")
        """,
    )
    findings = envknobs.check(roots=(local_paths,))
    assert any("module level" in v.message for v in findings)


def test_envknobs_flags_lenient_parser(local_paths):
    _write(
        local_paths,
        "bad_lenient.py",
        """
        import os

        def enabled():
            return os.getenv("REPRO_ENGINE_TYPED") == "1"
        """,
    )
    findings = envknobs.check(roots=(local_paths,))
    assert any(
        "never raises ConfigurationError" in v.message for v in findings
    )


def test_envknobs_flags_undocumented_name(local_paths):
    _write(
        local_paths,
        "bad_undocumented.py",
        """
        import os

        def parse():
            value = os.environ.get("REPRO_NO_SUCH_KNOB_XYZ", "")
            if value not in ("", "0", "1"):
                raise ConfigurationError(value)
            return value == "1"
        """,
    )
    findings = envknobs.check(roots=(local_paths,))
    assert any(
        "REPRO_NO_SUCH_KNOB_XYZ" in v.message and "documented" in v.message
        for v in findings
    )


def test_envknobs_accepts_strict_documented_parser(local_paths):
    _write(
        local_paths,
        "good_strict.py",
        """
        import os

        def enabled():
            if "REPRO_ENGINE_TYPED" in os.environ:  # membership probe: exempt
                pass
            value = os.environ.get("REPRO_ENGINE_TYPED", "").strip()
            if value not in ("", "0", "1"):
                raise ConfigurationError(value)
            return value != "0"
        """,
    )
    assert envknobs.check(roots=(local_paths,)) == []


# ---------------------------------------------------------------------------
# execguard: unvetted exec/eval is caught
# ---------------------------------------------------------------------------


def test_execguard_bans_eval_everywhere(local_paths):
    _write(local_paths, "bad_eval.py", "x = eval('1 + 1')\n")
    findings = execguard.check(roots=(local_paths,))
    assert any("eval() is banned" in v.message for v in findings)


def test_execguard_flags_exec_outside_allowlist(local_paths):
    _write(
        local_paths,
        "bad_exec.py",
        """
        source = "x = 1"
        exec(compile(source, "<kernel>", "exec"), {"__builtins__": {}})
        """,
    )
    findings = execguard.check(roots=(local_paths,))
    assert any("outside the vetted kernel modules" in v.message for v in findings)


def test_execguard_enforces_sandbox_inside_allowlist(local_paths, monkeypatch):
    path = _write(
        local_paths,
        "vector.py",
        """
        source = "x = 1"
        exec(compile(source, "<kernel>", "exec"), {"no": "builtins"})
        exec(compile("x = " + str(1), "<kernel>", "exec"), {"__builtins__": {}})
        exec(compile(source, "<kernel>", "exec"))
        """,
    )
    # make the seeded file count as the vetted module
    monkeypatch.setattr(execguard, "relative", lambda p: "src/repro/engine/vector.py")
    messages = [v.message for v in execguard.check(roots=(local_paths,))]
    assert any("'__builtins__': {}" in m for m in messages)  # wrong globals
    assert any("pre-assembled source" in m for m in messages)  # inline literal
    assert any("without an explicit globals" in m for m in messages)
    assert path.exists()


def test_execguard_accepts_the_vetted_shape(local_paths, monkeypatch):
    _write(
        local_paths,
        "vector.py",
        """
        source = "x = 1"
        namespace = {"__builtins__": {}, "helper": len}
        exec(compile(source, "<repro-kernel>", "exec"), namespace)
        exec(compile(header + source, "<repro-kernel>", "exec"), {"__builtins__": {}})
        """,
    )
    monkeypatch.setattr(execguard, "relative", lambda p: "src/repro/engine/vector.py")
    findings = execguard.check(roots=(local_paths,))
    # the first call's namespace is a name, not a dict literal — still flagged;
    # the second (literal sandbox, assembled source) is the accepted shape
    assert len(findings) == 1


def test_execguard_accepts_only_the_cached_compile_helper(local_paths, monkeypatch):
    """``exec(_kernel_code(source), …)`` is the vetted shape exactly when the
    module defines ``_kernel_code`` as a bare cached ``compile``; any other
    helper, or that name with another body, hides what is executed."""
    helper = """
        from functools import lru_cache

        @lru_cache(maxsize=1024)
        def _kernel_code(source):
            \"\"\"Compiled once per process.\"\"\"
            return compile(source, "<typed-kernel>", "exec")
    """
    seeded = {
        "exec(_kernel_code(header + source), {'__builtins__': {}})": [],
        "exec(_kernel_code('x = ' + str(1)), {'__builtins__': {}})": ["pre-assembled"],
        "exec(_code(source), {'__builtins__': {}})": ["another helper"],
        "exec(cache[source], {'__builtins__': {}})": ["another helper"],
    }
    monkeypatch.setattr(execguard, "relative", lambda p: "src/repro/engine/vector.py")
    for call, expected in seeded.items():
        _write(local_paths, "vector.py", helper + f"\n        {call}\n")
        messages = [v.message for v in execguard.check(roots=(local_paths,))]
        assert len(messages) == len(expected), (call, messages)
        assert all(part in message for part, message in zip(expected, messages))
    # the same call without the helper's exact body is a raw exec again
    for body in (
        "def _kernel_code(source):\n    return compile(source + tail, '<k>', 'exec')",
        "def _kernel_code(source):\n    return source",
        "_kernel_code = compile",
    ):
        _write(local_paths, "vector.py", body + "\nexec(_kernel_code(source), {'__builtins__': {}})\n")
        messages = [v.message for v in execguard.check(roots=(local_paths,))]
        assert len(messages) == 1 and "another helper" in messages[0], (body, messages)


# ---------------------------------------------------------------------------
# gcguard: collector-policy calls are caught however gc was imported
# ---------------------------------------------------------------------------


def test_gcguard_flags_policy_calls(local_paths):
    _write(
        local_paths,
        "bad_gc.py",
        """
        import gc
        import gc as collector
        from gc import freeze, set_threshold as tune

        def load():
            gc.disable()
            try:
                pass
            finally:
                gc.enable()
            collector.collect()
            freeze()
            tune(100_000)
        """,
    )
    findings = gcguard.check(roots=(local_paths,))
    assert [v.line for v in findings] == [7, 11, 12, 13, 14]
    assert all("process-global collector policy" in v.message for v in findings)
    for name in ("disable", "enable", "collect", "freeze", "set_threshold"):
        assert any(f"gc.{name}()" in v.message for v in findings)


def test_gcguard_allows_reading_the_collector(local_paths):
    _write(
        local_paths,
        "good_gc.py",
        """
        import gc

        def census(rows):
            gc.callbacks.append(print)
            other.collect()  # not the gc module
            return sum(map(gc.is_tracked, rows)), len(gc.get_objects())

        def collect():  # a local function of the same name
            return 1

        collect()
        """,
    )
    assert gcguard.check(roots=(local_paths,)) == []


# ---------------------------------------------------------------------------
# lockcheck: unlocked mutations of registered classes are caught
# ---------------------------------------------------------------------------

SEEDED_CLASS = """
import threading

class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0          # construction: no lock needed
        self.index = {}

    def record(self, key):
        self.hits += 1         # BAD: unlocked mutation
        with self._lock:
            self.index[key] = self.hits   # guarded: fine

    def reset(self):
        with self._lock:
            self.hits = 0      # guarded: fine
        self.index = {}        # BAD: after the with-block ends
"""


def test_lockcheck_flags_unlocked_mutations(local_paths, monkeypatch):
    _write(local_paths, "seeded.py", SEEDED_CLASS)
    monkeypatch.setattr(lockcheck, "SRC", local_paths)
    findings = lockcheck.check(registry=(("seeded.py", "Counter"),))
    assert len(findings) == 2
    assert all("outside 'with self._lock'" in v.message for v in findings)
    assert {v.line for v in findings} == {11, 18}


def test_lockcheck_flags_missing_registered_class(local_paths, monkeypatch):
    _write(local_paths, "seeded.py", "class Other:\n    pass\n")
    monkeypatch.setattr(lockcheck, "SRC", local_paths)
    findings = lockcheck.check(registry=(("seeded.py", "Counter"),))
    assert any("registered class missing" in v.message for v in findings)
    findings = lockcheck.check(registry=(("gone.py", "Counter"),))
    assert any("registered module missing" in v.message for v in findings)


# ---------------------------------------------------------------------------
# deadnames: a definition nobody mentions is caught, the exempt shapes are not
# ---------------------------------------------------------------------------

SEEDED_DEAD_NAMES = """
def register(cls):
    return cls

def used():
    return 1

def orphan():                      # BAD: mentioned nowhere else
    return used()

@register
class Registered:                  # decorator defined here is its caller
    def __len__(self):             # dunder
        return 0

    def _visit_leaf(self):         # built by the getattr below
        return getattr(self, f"_visit_{'leaf'}")

    def forgotten(self):           # BAD: a method counts too
        return None
"""


def test_deadnames_flags_unmentioned_definitions(local_paths):
    _write(local_paths, "seeded.py", SEEDED_DEAD_NAMES)
    findings = deadnames.check(roots=(local_paths,), mention_roots=(local_paths,))
    assert [(v.line, v.message.split()[0]) for v in findings] == [
        (8, "orphan"),
        (19, "forgotten"),
    ]
    # one mention anywhere in the searched trees (here: a docs page) is enough
    _write(local_paths, "notes.md", "call `orphan()` and `forgotten()`\n")
    assert deadnames.check(roots=(local_paths,), mention_roots=(local_paths,)) == []
