#!/usr/bin/env python3
"""Concurrent writers against lock-free readers on one engine table.

Run with the checkout to test on ``PYTHONPATH`` (``PYTHONPATH=src python
tools/stress_writers.py --seconds 8 --writers 2 --readers 2``); it uses only
calls every revision has, so the same file stresses a parent checkout and a
change.  In process: one :class:`repro.engine.Database`, one table of
``--rows`` base rows that never change, and on top of them each writer thread
inserts, negates (``UPDATE``) and deletes *groups* of four rows of its own,
one statement per group, and updates and deletes single rows by primary key
(:func:`_keyed_write`), racing the readers' key look-ups.  The keyed writes
are parsed once (:data:`KEYED`) and every writer executes those statement
objects with ``?`` values drawn per write and one shared memo space, so
where the engine memoizes write plans the writers run one plan each; every
keyed write must change exactly one row, and one that does not (a plan that
kept an earlier write's key) counts as a torn answer.  Every statement
keeps, over the writers' rows,

* ``COUNT(*)`` a multiple of four, ``SUM(a) = 0``,
* ``MIN(b) = 10`` and ``MAX(b) = 90`` (all three NULL while the count is 0),

so the invariant holds in every table version, and a reader's two-conjunct
scan (``w > 0 AND b >= 10``, both true of every writer row) can only break it
by judging one row on two versions — a *torn answer*.  Readers also look a
base row up by primary key and join the static table ``k`` (one row per
writer) to ``t`` on ``w`` — every writer row once, so the same invariant,
probed through the index of whatever version of ``t`` the join pinned.
A third kind of read streams the join's rows (:data:`STREAM`) in pieces of
seven while writers publish, and checks the invariant over the rows it
pulled: a stream reads one version of each table however long it is held.
A fourth scans the base rows, which no version changes, with a bind
parameter (:data:`BOUND`, ``b >= ?``) and an int or float value drawn per
read, and checks the exact answer (:func:`bound_answer`): a plan that kept
an earlier run's value answers wrong.
The scan, the join, the stream and the bound scan are parsed once and every
reader executes those statement objects with one shared memo space, so where
the engine memoizes plans (see :class:`repro.engine.executor.Executor`) the
readers run one prepared plan concurrently (per value types, for the bound
scan); a checkout without the memo ignores it.
At the end the table's last version must hold the column lists, typed
payloads and hash indexes a fresh build of its rows gives (where writes
derive a version's caches from the one they read, a wrong derivation shows
here as *stale*).
Prints reads / writes / stale / errors / torn answers; the exit code is 1 if
any read raised or was torn, or a cache was stale.
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
import time

from repro.backends.engine import EngineConnection
from repro.engine import Database
from repro.engine.storage import TableData
from repro.sql.parser import parse_query, parse_statement

LOW, HIGH = 10, 90
SCAN = f"SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM t WHERE w > 0 AND b >= {LOW}"
JOIN = "SELECT COUNT(*), SUM(a), MIN(b), MAX(b) FROM k, t WHERE k.w = t.w"
STREAM = "SELECT t.a, t.b FROM k, t WHERE k.w = t.w"
BOUND = "SELECT COUNT(*), SUM(a) FROM t WHERE w = 0 AND id >= 0 AND b >= ?"
#: the writers' statements by primary key, each changing one row
KEYED = {
    "move": "UPDATE t SET b = ? WHERE id = ?",
    "insert": "INSERT INTO t VALUES (?, 0, 0, 0, 0)",
    "bump": "UPDATE t SET g = g + 1 WHERE id = ?",
    "delete": "DELETE FROM t WHERE id = ?",
}
#: what each thread counts (a report may also hold its ``first_error``)
COUNTS = ("reads", "writes", "errors", "torn")


def torn(row: tuple) -> bool:
    """Whether a :data:`SCAN` / :data:`JOIN` answer breaks the every-version
    invariant."""
    count, total, low, high = row
    if count == 0:
        return (total, low, high) != (None, None, None)
    return count % 4 != 0 or total != 0 or low != LOW or high != HIGH


def bound_answer(rows: int, value) -> tuple:
    """The :data:`BOUND` answer for ``b >= value`` over ``rows`` base rows
    (row ``i`` has ``a = i``, ``b = i % 100``): per residue ``r``, the
    count and sum of ``range(r, rows, 100)``."""
    count = total = 0
    for residue in range(100):
        if residue >= value:
            n = len(range(residue, rows, 100))
            count += n
            total += n * residue + 100 * n * (n - 1) // 2
    return count, total if count else None


def torn_rows(rows: list) -> bool:
    """Whether the ``(a, b)`` rows of a :data:`STREAM` break the invariant."""
    return (
        len(rows) % 4 != 0
        or sum(a for a, _ in rows) != 0
        or any(not LOW <= b <= HIGH for _, b in rows)
    )


def cells(values) -> list:
    """``values`` with each one's type: ``True`` and ``1``, or ``1`` and
    ``1.0``, are different cells."""
    return [(type(value), value) for value in values]


def payload(typed) -> tuple | None:
    """A typed payload (or the ``None`` refusal) as a comparable value."""
    if typed is None:
        return None
    return (typed.kind, typed.values.typecode, typed.values.tolist(), typed.parsed)


def stale(data: TableData) -> int:
    """How many column lists, typed payloads and hash indexes of ``data``
    differ from what a fresh build of its rows gives."""
    fresh = TableData(data.schema, data.rows)
    return sum(
        (cells(data.column_array(index)) != cells(fresh.column_array(index)))
        + (payload(data.typed_column(index)) != payload(fresh.typed_column(index)))
        for index in range(len(data.schema.columns))
    ) + sum(
        index != fresh.hash_index(*columns)
        for columns, index in data.indexes.copy().items()
    )


def _failed(report: dict, exc: Exception) -> None:
    report["errors"] += 1
    report.setdefault("first_error", f"{type(exc).__name__}: {exc}")


def _keyed_write(
    connection: EngineConnection,
    shapes: "_Shapes",
    writer: int,
    rng: random.Random,
    live: list[int],
    scratch: list[int],
) -> int:
    """One statement by primary key (``WHERE id = ?``): move the middle
    ``b`` of a live group's third row (it stays within ``LOW..HIGH``), or
    toggle a scratch row — ``w = 0``, a negative ``id`` — that no reader's
    answer includes, inserting it or updating and deleting it by key.
    Returns the number of rows it changed."""
    if rng.random() < 0.5:
        key = writer * 10**9 + rng.choice(live) * 4 + 2
        name, values = "move", [rng.randint(LOW, HIGH), key]
    elif not scratch:
        scratch.append(-(writer * 10**9 + rng.randint(1, 10**6)))
        name, values = "insert", [scratch[0]]
    elif rng.random() < 0.5:
        name, values = "bump", [scratch[0]]
    else:
        name, values = "delete", [scratch.pop()]
    return connection.execute_scoped(
        shapes.keyed[name], parameters=values, compiled=shapes
    ).rowcount


def _writer(
    database: Database, writer: int, shapes: "_Shapes", rng: random.Random, stop, report: dict
) -> None:
    connection = EngineConnection(database)
    live: list[int] = []
    scratch: list[int] = []
    group = 0
    while not stop.is_set():
        choice = rng.random()
        try:
            if not live or (choice < 0.5 and len(live) < 50):
                group += 1
                x, y = rng.randint(1, 1000), rng.randint(1, 1000)
                mid = rng.randint(LOW, HIGH)
                values = ", ".join(
                    f"({writer * 10**9 + group * 4 + k}, {writer}, {group}, {a}, {b})"
                    for k, (a, b) in enumerate(((x, LOW), (-x, HIGH), (y, mid), (-y, mid)))
                )
                database.execute(f"INSERT INTO t VALUES {values}")
                live.append(group)
            elif choice < 0.6:
                target = rng.choice(live)
                database.execute(f"UPDATE t SET a = -a WHERE w = {writer} AND g = {target}")
            elif choice < 0.8:
                report["torn"] += _keyed_write(connection, shapes, writer, rng, live, scratch) != 1
            else:
                target = live.pop(rng.randrange(len(live)))
                database.execute(f"DELETE FROM t WHERE w = {writer} AND g = {target}")
        except Exception as exc:  # noqa: BLE001 - every failure is the finding
            _failed(report, exc)
        report["writes"] += 1


class _Shapes:
    """The pre-parsed :data:`SCAN`, :data:`JOIN`, :data:`STREAM`,
    :data:`BOUND` and :data:`KEYED` statements, and the memo space every
    thread shares for them (it stands in for a compiled artifact's)."""

    def __init__(self) -> None:
        self.scan = parse_query(SCAN)
        self.join = parse_query(JOIN)
        self.stream = parse_query(STREAM)
        self.bound = parse_query(BOUND)
        self.keyed = {name: parse_statement(sql) for name, sql in KEYED.items()}
        self.attachments: dict = {}


def _reader(database: Database, shapes: _Shapes, rows: int, rng, stop, report: dict) -> None:
    connection = EngineConnection(database)
    while not stop.is_set():
        try:
            choice = rng.random()
            if choice < 0.45:
                statement = shapes.scan if choice < 0.25 else shapes.join
                result = connection.execute_scoped(statement, compiled=shapes)
                report["torn"] += torn(result.rows[0])
            elif choice < 0.6:
                value = rng.choice((rng.randint(-5, 105), rng.randint(0, 99) + 0.5))
                result = connection.execute_scoped(
                    shapes.bound, parameters=[value], compiled=shapes
                )
                report["torn"] += result.rows[0] != bound_answer(rows, value)
            elif choice < 0.8:
                stream = connection.execute_stream(shapes.stream, compiled=shapes)
                pulled: list = []
                while page := stream.fetchmany(7):
                    pulled.extend(page)
                report["torn"] += torn_rows(pulled)
            else:
                key = rng.randrange(rows)
                found = database.query(f"SELECT id, a FROM t WHERE id = {key} AND w = 0").rows
                report["torn"] += found != [(key, key)]
        except Exception as exc:  # noqa: BLE001 - every failure is the finding
            _failed(report, exc)
        report["reads"] += 1


def run(seconds: float, writers: int, readers: int, rows: int, seed: int = 0) -> dict:
    """Stress one table for ``seconds``; the totals the command prints."""
    database = Database()
    database.execute(
        "CREATE TABLE t (id INTEGER NOT NULL, w INTEGER NOT NULL, g INTEGER NOT NULL,"
        " a INTEGER NOT NULL, b INTEGER NOT NULL, CONSTRAINT pk_t PRIMARY KEY (id))"
    )
    database.insert_rows("t", [(i, 0, 0, i, i % 100) for i in range(rows)])
    database.execute("CREATE TABLE k (w INTEGER NOT NULL)")
    database.insert_rows("k", [(writer + 1,) for writer in range(writers)])
    stop = threading.Event()
    reports = [dict.fromkeys(COUNTS, 0) for _ in range(writers + readers)]
    shapes = _Shapes()
    threads = []
    for k, report in enumerate(reports):
        rng = random.Random(seed * 1000 + k)
        args = (k + 1, shapes) if k < writers else (shapes, rows)
        threads.append(
            threading.Thread(
                target=_writer if k < writers else _reader,
                args=(database, *args, rng, stop, report),
                daemon=True,
            )
        )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # hand over mid-scan far more often than every 5 ms
    try:
        for thread in threads:
            thread.start()
        time.sleep(seconds)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    totals = {key: sum(report[key] for report in reports) for key in COUNTS}
    totals["errors"] += sum(thread.is_alive() for thread in threads)  # a stuck thread
    totals["torn"] += sum(torn(database.query(sql).rows[0]) for sql in (SCAN, JOIN))  # settled
    totals["stale"] = stale(database.catalog.table("t").data)
    errors = [report["first_error"] for report in reports if "first_error" in report]
    if errors:
        totals["first_error"] = errors[0]
    return totals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--writers", type=int, default=2)
    parser.add_argument("--readers", type=int, default=2)
    parser.add_argument("--rows", type=int, default=20000, help="base rows under the writers' rows")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    totals = run(args.seconds, args.writers, args.readers, args.rows, args.seed)
    print(
        f"reads {totals['reads']}  writes {totals['writes']}  stale {totals['stale']}  "
        f"errors {totals['errors']}  torn answers {totals['torn']}"
    )
    if "first_error" in totals:
        print(f"first error: {totals['first_error']}")
    return 1 if totals["errors"] or totals["torn"] or totals["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
