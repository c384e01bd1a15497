"""Heap pins: a loaded database is out of the cycle collector's sight.

Every cell of the value model is an atom the collector does not track
(``None``/``int``/``float``/``str``/``bool`` and stdlib ``datetime.date``),
so CPython untracks each stored row tuple at the first collection that sees
it.  A full collection then walks the catalog, not the data: its cost no
longer grows with the scale factor.  (A ``@dataclass`` ``Date`` — or any
``class`` statement, ``__slots__`` or not — is a GC type and kept one tracked
object per DATE cell plus every row holding one.)
"""

from __future__ import annotations

import datetime
import gc

from repro.mth import ALL_QUERY_IDS, load_mth, query_text


def _tracked_objects() -> int:
    gc.collect()
    return len(gc.get_objects())


def _stored_rows(instance) -> int:
    return sum(len(table.rows) for table in instance.database.catalog.tables())


def test_stored_rows_are_untracked_after_one_collection():
    instance = load_mth(scale_factor=0.001, tenants=4)
    gc.collect()
    catalog = instance.database.catalog
    for name in ("lineitem", "orders"):
        rows = catalog.table(name).rows
        assert rows
        assert not any(map(gc.is_tracked, rows)), name
    # a tuple of untracked tuples is itself untracked by the next collection
    # that visits it (a pass that finds a row still tracked when it looks at
    # the sequence leaves the sequence for the pass after): from then on the
    # collector does not even walk a table's rows
    gc.collect()
    for name in ("lineitem", "orders"):
        rows = catalog.table(name).rows
        assert type(rows) is tuple and not gc.is_tracked(rows), name
    shipdate = catalog.table("lineitem").schema.column_index("l_shipdate")
    cell = catalog.table("lineitem").rows[0][shipdate]
    assert type(cell) is datetime.date and not gc.is_tracked(cell)


def test_tracked_objects_do_not_grow_with_the_scale_factor():
    load_mth(scale_factor=0.0005, tenants=4)  # imports, caches, lazy set-up
    base = _tracked_objects()
    small = load_mth(scale_factor=0.001, tenants=4)
    after_small = _tracked_objects()
    large = load_mth(scale_factor=0.002, tenants=4)
    after_large = _tracked_objects()
    # each instance costs the same catalog/function/statistics objects; what
    # is left of the difference is what scales with the rows
    growth = (after_large - after_small) - (after_small - base)
    row_delta = _stored_rows(large) - _stored_rows(small)
    assert row_delta > 3000
    assert growth < 0.05 * row_delta, (growth, row_delta)


def test_join_indexes_add_no_tracked_object_per_key():
    """A 22-query round leaves an index on every equi-join column set — some
    twenty dicts holding tens of thousands of keys.  Unique keys map to the
    row itself and repeated ones to a tuple of rows, both untracked after two
    collections, so what the collector walks grows by the plans and the
    dicts, not by the keys."""
    instance = load_mth(scale_factor=0.002, tenants=4)
    connection = instance.middleware.connect(1, optimization="o4")
    connection.set_scope("IN ()")
    gc.collect()
    loaded = _tracked_objects()
    for query_id in ALL_QUERY_IDS:
        connection.query(query_text(query_id))
    catalog = instance.database.catalog
    indexes = [index for table in catalog.tables() for index in table.data.indexes.values()]
    keys = sum(len(index.table) for index in indexes)
    assert len(indexes) >= 10 and keys > 5000
    assert any(index.unique for index in indexes) and not all(index.unique for index in indexes)
    gc.collect()
    assert _tracked_objects() - loaded < 2000, (loaded, keys)  # list buckets: one per key
