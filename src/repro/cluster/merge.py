"""Gather-side merging of row streams: deduplication and ordering.

A row-stream plan leaves the coordinator with per-shard rows that only need
the engine's ``DISTINCT`` and ``ORDER BY`` re-applied — no expression is
evaluated — so two list helpers do it:

* :func:`distinct_rows` — first-occurrence-wins deduplication,
* :func:`sort_rows` — the engine's ``ORDER BY`` algorithm (stable per-key
  sorts over :func:`repro.sql.types.sort_key`).

Partial-aggregate plans need no code here: their merge is a query
(:class:`~repro.sql.transform.AggregateSplit`) the coordinator's engine runs.
"""

from __future__ import annotations

from typing import Sequence

from ..sql.types import sort_key


def distinct_rows(rows: list[tuple]) -> list[tuple]:
    """First-occurrence-wins deduplication, matching the engine's DISTINCT."""
    return list(dict.fromkeys(rows))


def sort_rows(
    rows: list[tuple], sort_columns: Sequence[tuple[int, bool]]
) -> list[tuple]:
    """Sort gathered rows exactly like the engine sorts projected rows.

    Stable per-key passes from the minor key to the major key over the
    mixed-type total order of :func:`repro.sql.types.sort_key`.
    """
    if not sort_columns:
        return rows
    ordered = list(rows)
    for position, descending in reversed(list(sort_columns)):
        ordered.sort(key=lambda row: sort_key(row[position]), reverse=descending)
    return ordered
