"""DDL / DML execution and integrity checking."""

import pytest

from repro.engine import Database, VectorConfig
from repro.errors import CatalogError, ConstraintViolation


@pytest.fixture
def db():
    database = Database()
    database.execute(
        "CREATE TABLE customer (id INTEGER NOT NULL, name VARCHAR(20) NOT NULL,"
        " balance DECIMAL(10,2) DEFAULT 0, CONSTRAINT pk PRIMARY KEY (id))"
    )
    database.execute(
        "CREATE TABLE orders (id INTEGER NOT NULL, cust INTEGER NOT NULL,"
        " CONSTRAINT pk_o PRIMARY KEY (id),"
        " CONSTRAINT fk_o FOREIGN KEY (cust) REFERENCES customer (id))"
    )
    return database


class TestDDL:
    def test_create_table_registers_schema(self, db):
        table = db.catalog.table("customer")
        assert table.schema.column_names == ["id", "name", "balance"]
        assert table.schema.primary_key == ("id",)

    def test_foreign_key_registered(self, db):
        assert db.catalog.foreign_keys("orders")[0].ref_table == "customer"

    def test_drop_table(self, db):
        db.execute("DROP TABLE orders")
        assert not db.catalog.has_table("orders")

    def test_create_view_and_drop_view(self, db):
        db.execute("INSERT INTO customer (id, name) VALUES (1, 'ada')")
        db.execute("CREATE VIEW names AS SELECT name FROM customer")
        assert db.query("SELECT * FROM names").rows == [("ada",)]
        db.execute("DROP VIEW names")
        assert not db.catalog.has_view("names")

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE customer (id INTEGER)")

    def test_execute_script(self, db):
        results = db.execute_script(
            "INSERT INTO customer (id, name) VALUES (1, 'ada');"
            "INSERT INTO customer (id, name) VALUES (2, 'bob');"
            "SELECT COUNT(*) AS c FROM customer;"
        )
        assert results[-1].scalar() == 2


class TestInsert:
    def test_insert_full_rows(self, db):
        result = db.execute("INSERT INTO customer VALUES (1, 'ada', 10.5), (2, 'bob', 0)")
        assert result.rowcount == 2
        assert db.table_rowcount("customer") == 2

    def test_insert_with_column_list_uses_defaults(self, db):
        db.execute("INSERT INTO customer (id, name) VALUES (1, 'ada')")
        assert db.query("SELECT balance FROM customer").rows == [(0,)]

    def test_insert_select(self, db):
        db.execute("INSERT INTO customer VALUES (1, 'ada', 10), (2, 'bob', 20)")
        db.execute("INSERT INTO orders (id, cust) SELECT id + 100, id FROM customer")
        assert db.table_rowcount("orders") == 2

    def test_insert_not_null_violation(self, db):
        with pytest.raises(ConstraintViolation):
            db.execute("INSERT INTO customer VALUES (1, NULL, 0)")

    def test_insert_expression_values(self, db):
        db.execute("INSERT INTO customer VALUES (1 + 1, UPPER('ada'), 2 * 5)")
        assert db.query("SELECT id, name, balance FROM customer").rows == [(2, "ADA", 10)]


class TestFailedInsertLeavesNothingBehind:
    """A statement (or bulk load) whose n-th row is refused inserts none of
    the rows before it — what sqlite, the differential oracle, does."""

    @pytest.fixture
    def t(self):
        database = Database()
        database.execute("CREATE TABLE t (a INTEGER NOT NULL, b INTEGER DEFAULT 7)")
        database.execute("CREATE TABLE src (a INTEGER, b INTEGER)")
        database.execute("INSERT INTO src VALUES (1, 1), (NULL, 2), (3, 3)")
        database.execute("INSERT INTO t VALUES (0, 0)")
        return database

    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO t VALUES (1, 1), (NULL, 2), (3, 3)",
            "INSERT INTO t SELECT a, b FROM src",
            "INSERT INTO t (b, a) SELECT b, a FROM src",
            "INSERT INTO t (a) VALUES (1), (NULL), (3)",
            "INSERT INTO t (b) VALUES (5)",
            "INSERT INTO t VALUES (1, 1), (2, 2, 2)",
        ],
    )
    def test_statement_is_all_or_none(self, t, sql):
        before = t.catalog.table("t").data
        with pytest.raises(ConstraintViolation):
            t.execute(sql)
        assert t.catalog.table("t").data is before
        assert t.query("SELECT a, b FROM t").rows == [(0, 0)]

    def test_bulk_load_is_all_or_none(self, t):
        with pytest.raises(ConstraintViolation):
            t.insert_rows("t", [(5, 5), (None, 6)])
        assert t.query("SELECT a, b FROM t").rows == [(0, 0)]
        assert t.insert_rows("t", [(5, 5), (6, None)]) == 2
        assert t.query("SELECT a, b FROM t").rows == [(0, 0), (5, 5), (6, None)]

    def test_engine_keeps_what_sqlite_keeps(self, t):
        from repro.backends import SQLiteBackend
        from repro.errors import ReproError

        def replay(target) -> list[tuple]:
            for attempt in (
                lambda: target.execute("INSERT INTO t VALUES (1, 1), (NULL, 2), (3, 3)"),
                lambda: target.insert_rows("t", [(5, 5), (None, 6)]),
                lambda: target.execute("INSERT INTO t (a) VALUES (8), (9)"),
            ):
                try:
                    attempt()
                except ReproError:
                    pass
            return [tuple(row) for row in target.query("SELECT a, b FROM t ORDER BY a").rows]

        with SQLiteBackend() as backend:
            sqlite = backend.connect()
            sqlite.execute("CREATE TABLE t (a INTEGER NOT NULL, b INTEGER DEFAULT 7)")
            sqlite.execute("INSERT INTO t VALUES (0, 0)")
            expected = replay(sqlite)
        assert expected == [(0, 0), (8, 7), (9, 7)]
        assert replay(t) == expected


class TestUpdateDelete:
    def test_update_with_where(self, db):
        db.execute("INSERT INTO customer VALUES (1, 'ada', 10), (2, 'bob', 20)")
        result = db.execute("UPDATE customer SET balance = balance * 2 WHERE id = 2")
        assert result.rowcount == 1
        assert db.query("SELECT balance FROM customer WHERE id = 2").scalar() == 40

    def test_update_all_rows(self, db):
        db.execute("INSERT INTO customer VALUES (1, 'ada', 10), (2, 'bob', 20)")
        assert db.execute("UPDATE customer SET balance = 0").rowcount == 2

    def test_update_not_null_enforced(self, db):
        db.execute("INSERT INTO customer VALUES (1, 'ada', 10)")
        with pytest.raises(ConstraintViolation):
            db.execute("UPDATE customer SET name = NULL")

    def test_delete_with_where(self, db):
        db.execute("INSERT INTO customer VALUES (1, 'ada', 10), (2, 'bob', 20)")
        assert db.execute("DELETE FROM customer WHERE balance < 15").rowcount == 1
        assert db.table_rowcount("customer") == 1

    def test_delete_all(self, db):
        db.execute("INSERT INTO customer VALUES (1, 'ada', 10)")
        assert db.execute("DELETE FROM customer").rowcount == 1
        assert db.table_rowcount("customer") == 0

    def test_update_visible_to_subsequent_queries_with_key_lookup(self, db):
        """Primary-key hash indexes must be invalidated by UPDATE (version bump)."""
        db.execute("INSERT INTO customer VALUES (1, 'ada', 10), (2, 'bob', 20)")
        assert db.query("SELECT name FROM customer WHERE id = 2").rows == [("bob",)]
        db.execute("UPDATE customer SET name = 'robert' WHERE id = 2")
        assert db.query("SELECT name FROM customer WHERE id = 2").rows == [("robert",)]


class TestBatchDML:
    """WHERE and SET are batch kernels over the table version; SET sees only
    the rows WHERE selected."""

    @pytest.fixture
    def t(self):
        database = Database(vector=VectorConfig(batch_size=3))
        database.execute("CREATE TABLE t (id INTEGER NOT NULL, a INTEGER, b INTEGER)")
        database.execute("CREATE TABLE s (id INTEGER, w INTEGER)")
        database.insert_rows("t", [(1, 10, 2), (2, 20, 0), (3, 30, 5), (4, 40, 0), (5, 50, 10)])
        database.insert_rows("s", [(1, 7), (3, 7), (3, 8), (5, 100)])
        return database

    def _rows(self, t):
        return t.query("SELECT id, a, b FROM t ORDER BY id").rows

    def test_set_never_runs_on_a_row_where_rejected(self, t):
        assert t.execute("UPDATE t SET a = a / b WHERE b <> 0").rowcount == 3
        assert self._rows(t) == [(1, 5.0, 2), (2, 20, 0), (3, 6.0, 5), (4, 40, 0), (5, 5.0, 10)]

    def test_update_with_a_correlated_subquery(self, t):
        sql = "UPDATE t SET b = -1 WHERE EXISTS (SELECT 1 FROM s WHERE s.id = t.id AND s.w < 50)"
        assert t.execute(sql).rowcount == 2
        assert [row[2] for row in self._rows(t)] == [-1, 0, -1, 0, 10]
        sql = "UPDATE t SET a = 0 WHERE a < (SELECT MAX(w) FROM s WHERE s.id = t.id)"
        assert t.execute(sql).rowcount == 1
        assert [row[1] for row in self._rows(t)] == [10, 20, 30, 40, 0]

    def test_delete_with_a_correlated_subquery(self, t):
        sql = "DELETE FROM t WHERE t.b NOT IN (SELECT w - 5 FROM s WHERE s.id = t.id)"
        # id 2 and 4 have no s rows (NOT IN of nothing: deleted); id 1 keeps
        # b = 2 = 7 - 5, id 3 has 5 ∉ {2, 3}, id 5 has 10 ∉ {95}
        assert t.execute(sql).rowcount == 4
        assert self._rows(t) == [(1, 10, 2)]


class TestIntegrityChecking:
    def test_clean_database_has_no_violations(self, db):
        db.execute("INSERT INTO customer VALUES (1, 'ada', 0)")
        db.execute("INSERT INTO orders VALUES (10, 1)")
        assert db.check_integrity() == []

    def test_duplicate_primary_key_detected(self, db):
        db.execute("INSERT INTO customer VALUES (1, 'ada', 0), (1, 'dup', 0)")
        violations = db.check_integrity()
        assert any("duplicate primary key" in violation for violation in violations)

    def test_foreign_key_violation_detected(self, db):
        db.execute("INSERT INTO orders VALUES (10, 99)")
        violations = db.check_integrity()
        assert any("foreign key violation" in violation for violation in violations)
