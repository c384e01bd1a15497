"""Planner behaviour: push-down, hash joins, primary-key look-ups, correctness."""

import pytest

from repro.engine import Database


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE big (id INTEGER NOT NULL, ref INTEGER NOT NULL, payload INTEGER,"
        " CONSTRAINT pk_big PRIMARY KEY (id))"
    )
    database.execute(
        "CREATE TABLE small (id INTEGER NOT NULL, label VARCHAR(10) NOT NULL,"
        " CONSTRAINT pk_small PRIMARY KEY (id))"
    )
    database.execute(
        "INSERT INTO small VALUES " + ", ".join(f"({i}, 'label{i}')" for i in range(10))
    )
    database.execute(
        "INSERT INTO big VALUES "
        + ", ".join(f"({i}, {i % 10}, {i * 7 % 100})" for i in range(500))
    )
    return database


class TestHashJoinPlanning:
    def test_equi_join_result_is_correct(self, db):
        result = db.query(
            "SELECT small.label, COUNT(*) AS c FROM big, small WHERE big.ref = small.id "
            "GROUP BY small.label ORDER BY small.label"
        )
        assert len(result.rows) == 10
        assert all(count == 50 for _, count in result.rows)

    def test_hash_join_scales_roughly_linearly(self, db):
        """A nested-loop join would do 500 x 10 x 10 work; the plan must stay flat."""
        import time

        start = time.perf_counter()
        for _ in range(5):
            db.query("SELECT COUNT(*) AS c FROM big, small WHERE big.ref = small.id")
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0

    def test_join_with_composite_key(self, db):
        db.execute("CREATE TABLE pairs (a INTEGER, b INTEGER)")
        db.execute("INSERT INTO pairs VALUES (1, 7), (2, 14), (3, 21)")
        result = db.query(
            "SELECT COUNT(*) AS c FROM big, pairs WHERE big.ref = pairs.a AND big.payload = pairs.b"
        )
        # rows with ref==1 and payload==7: ids 1, 101, 201, ... -> payload = id*7%100
        assert result.scalar() >= 1

    def test_filters_pushed_below_join(self, db):
        result = db.query(
            "SELECT COUNT(*) AS c FROM big, small "
            "WHERE big.ref = small.id AND small.label = 'label3' AND big.payload > 50"
        )
        expected = db.query(
            "SELECT COUNT(*) AS c FROM big WHERE big.ref = 3 AND big.payload > 50"
        ).scalar()
        assert result.scalar() == expected

    def test_disconnected_tables_fall_back_to_cross_product(self, db):
        db.execute("CREATE TABLE tiny (x INTEGER)")
        db.execute("INSERT INTO tiny VALUES (1), (2)")
        assert db.query("SELECT COUNT(*) AS c FROM small, tiny").scalar() == 20

    def test_join_edge_between_placed_sources_becomes_filter(self, db):
        """Triangle joins (a=b, b=c, a=c) must not lose the third predicate."""
        db.execute("CREATE TABLE t1 (v INTEGER)")
        db.execute("CREATE TABLE t2 (v INTEGER)")
        db.execute("CREATE TABLE t3 (v INTEGER)")
        for table in ("t1", "t2", "t3"):
            db.execute(f"INSERT INTO {table} VALUES (1), (2), (3)")
        result = db.query(
            "SELECT COUNT(*) AS c FROM t1, t2, t3 "
            "WHERE t1.v = t2.v AND t2.v = t3.v AND t1.v = t3.v"
        )
        assert result.scalar() == 3


class TestPrimaryKeyLookup:
    def test_point_query_uses_index_and_is_fast(self, db):
        import time

        db.query("SELECT payload FROM big WHERE id = 5")  # warm the index
        start = time.perf_counter()
        for key in range(300):
            db.query(f"SELECT payload FROM big WHERE id = {key}")
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0

    def test_point_query_result_correct(self, db):
        assert db.query("SELECT payload FROM big WHERE id = 13").scalar() == 13 * 7 % 100

    def test_key_lookup_not_used_when_value_references_same_table(self, db):
        result = db.query("SELECT COUNT(*) AS c FROM big WHERE id = payload")
        manual = sum(1 for i in range(500) if i == i * 7 % 100)
        assert result.scalar() == manual

    def test_sql_function_lookup_through_parameter(self, db):
        db.execute(
            "CREATE FUNCTION label_of (INTEGER) RETURNS VARCHAR(10) AS "
            "'SELECT label FROM small WHERE id = $1' LANGUAGE SQL IMMUTABLE"
        )
        assert db.query("SELECT label_of(4) AS l").rows == [("label4",)]


class TestCorrelationDetection:
    def test_correlated_subquery_not_cached(self, db):
        result = db.query(
            "SELECT small.id FROM small WHERE EXISTS "
            "(SELECT 1 FROM big WHERE big.ref = small.id AND big.payload > 90) ORDER BY small.id"
        )
        expected = sorted(
            {i % 10 for i in range(500) if i * 7 % 100 > 90}
        )
        assert [row[0] for row in result.rows] == expected

    def test_outer_reference_two_levels_deep(self, db):
        result = db.query(
            "SELECT small.id FROM small WHERE small.id = "
            "(SELECT MIN(ref) FROM big WHERE big.ref = small.id)"
        )
        assert len(result.rows) == 10


class TestReadOnlyScans:
    """Sources hand their rows to joins read-only — a table version is
    immutable, so not even a stream that outlives its statement copies."""

    def test_unfiltered_scan_is_the_heap_not_a_copy(self, db):
        from repro.engine.planner import TableSource

        table = db.catalog.table("small")
        assert TableSource(table, "small").batch(()).rows is table.rows

    def test_join_does_not_disturb_the_heap(self, db):
        heap = db.catalog.table("small").rows
        before = tuple(heap)
        db.query("SELECT COUNT(*) FROM big, small WHERE big.ref = small.id")
        db.query("SELECT * FROM small")
        assert db.catalog.table("small").rows is heap and heap == before

    def test_open_stream_does_not_see_rows_inserted_under_it(self, db):
        stream = db.execute_stream("SELECT id FROM small")
        first = stream.fetchmany(3)
        db.execute("INSERT INTO small VALUES (10, 'label10')")
        assert len(first) + len(list(stream)) == 10
        assert db.query("SELECT COUNT(*) FROM small").scalar() == 11

    def test_open_stream_does_not_see_rows_updated_under_it(self, db):
        stream = db.execute_stream("SELECT id, label FROM small")
        first = stream.fetchmany(3)
        db.execute("UPDATE small SET label = 'changed'")
        assert first + list(stream) == [(i, f"label{i}") for i in range(10)]
        assert db.query("SELECT DISTINCT label FROM small").rows == [("changed",)]

    def test_open_stream_does_not_miss_rows_deleted_under_it(self, db):
        stream = db.execute_stream("SELECT id FROM small")
        first = stream.fetchmany(3)
        db.execute("DELETE FROM small WHERE id >= 2")
        assert first + list(stream) == [(i,) for i in range(10)]
        assert db.query("SELECT COUNT(*) FROM small").scalar() == 2

    def test_open_stream_survives_a_truncate_under_it(self, db):
        stream = db.execute_stream("SELECT id FROM small")
        first = stream.fetchmany(3)
        db.execute("DELETE FROM small")
        assert first + list(stream) == [(i,) for i in range(10)]
        assert db.query("SELECT COUNT(*) FROM small").scalar() == 0
