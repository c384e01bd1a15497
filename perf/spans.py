"""The benchmark's own tracer: spans around calls into the program's layers.

Spans are recorded from outside the program.  :meth:`Tracer.wrap` replaces a
*public* function or method of a ``repro`` layer with a wrapper that records
one span per call (name, start, end, parent span, statement id) and restores
the original afterwards; :meth:`Tracer.span` brackets calls the harness makes
itself.  Spans stay in memory until :meth:`Tracer.write_jsonl`.

A span's parent is the innermost span open on its own thread.  A span that
opens on a thread with nothing open (a scatter worker of the sharded
coordinator) is parented to the innermost span open on the thread that
opened the current statement, which is well defined because the traced
replay runs one statement at a time.

A layer's **self time** is its spans' duration minus the part of that
interval their child spans cover; overlapping children (shards running in
parallel) are counted once.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Iterable, Iterator, Optional

# span record layout (a list, mutated once at end): cheap on the hot path
_ID, _NAME, _PARENT, _STATEMENT, _START, _END = range(6)


class Tracer:
    """Records nested spans; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home: Optional[list] = None  # open-span stack of the statement's thread
        self._statement: Optional[int] = None
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span on the calling thread; pass the result to :meth:`end`."""
        stack = self._stack()
        if stack:
            parent = stack[-1][_ID]
        elif self._home and self._home is not stack:
            parent = self._home[-1][_ID]
        else:
            parent = None
        record = [next(self._ids), name, parent, self._statement, 0, 0]
        stack.append(record)
        record[_START] = perf_counter_ns()
        return record

    def end(self, record: list) -> None:
        """Close a span opened by :meth:`begin` on the same thread."""
        record[_END] = perf_counter_ns()
        self._stack().pop()
        self.spans.append(record)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Bracket a block of harness code with a span."""
        record = self.begin(name)
        try:
            yield
        finally:
            self.end(record)

    @contextmanager
    def statement(self, statement_id: int, name: str = "stmt") -> Iterator[None]:
        """Root span of one replayed statement; child spans share its id."""
        self._statement = statement_id
        self._home = self._stack()
        record = self.begin(name)
        try:
            yield
        finally:
            self.end(record)
            self._statement = None
            self._home = None

    # -- wrapping layer entry points -----------------------------------------

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attribute``.

        ``owner`` is a class or a module; ``attribute`` must be one of its
        public plain functions.  :meth:`unwrap_all` restores the original.
        """
        if attribute.startswith("_"):
            raise ValueError(f"refusing to wrap private name {attribute!r}")
        original = getattr(owner, attribute)
        if not callable(original) or isinstance(original, type):
            raise TypeError(f"{owner!r}.{attribute} is not a plain function")
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            record = begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                end(record)

        traced.__name__ = getattr(original, "__name__", attribute)
        traced.__wrapped__ = original  # type: ignore[attr-defined]
        self._patches.append((owner, attribute, original, attribute in vars(owner)))
        setattr(owner, attribute, traced)

    def unwrap_all(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attribute, original, own = self._patches.pop()
            if own:
                setattr(owner, attribute, original)
            else:  # the wrapper shadowed an inherited attribute
                delattr(owner, attribute)

    # -- analysis ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in completion order."""
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": record[_ID],
                            "name": record[_NAME],
                            "parent": record[_PARENT],
                            "statement": record[_STATEMENT],
                            "start_ns": record[_START],
                            "end_ns": record[_END],
                            "self_ns": selfs[record[_ID]],
                        }
                    )
                    + "\n"
                )


def covered(start: int, end: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0
    cursor = start
    for low, high in sorted(intervals):
        low = max(low, cursor)
        high = min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(spans: Iterable[list]) -> dict[int, int]:
    """Self time per span id: duration minus the part its children cover."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for record in spans:
        if record[_PARENT] is not None:
            children[record[_PARENT]].append((record[_START], record[_END]))
    return {
        record[_ID]: (record[_END] - record[_START])
        - covered(record[_START], record[_END], children.get(record[_ID], ()))
        for record in spans
    }


def totals_by_name(
    spans: Iterable[list],
) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """``(self ns, inclusive ns, call count)`` summed per span name."""
    spans = list(spans)
    selfs = self_times(spans)
    self_ns: dict[str, int] = defaultdict(int)
    inclusive_ns: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for record in spans:
        self_ns[record[_NAME]] += selfs[record[_ID]]
        inclusive_ns[record[_NAME]] += record[_END] - record[_START]
        calls[record[_NAME]] += 1
    return dict(self_ns), dict(inclusive_ns), dict(calls)
