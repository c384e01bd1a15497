"""Unit tests for storage (tables, schemas) and the catalog."""

import pytest

from repro.engine.catalog import Catalog
from repro.engine.functions import PythonFunction
from repro.engine.storage import ColumnSchema, ForeignKey, Table, TableSchema
from repro.errors import CatalogError, ConstraintViolation
from repro.sql import ast
from repro.sql.parser import parse_query
from repro.sql.types import SQLType


def make_schema():
    return TableSchema(
        name="People",
        columns=[
            ColumnSchema("id", SQLType.INTEGER, not_null=True),
            ColumnSchema("name", SQLType.VARCHAR, not_null=True),
            ColumnSchema("age", SQLType.INTEGER, default=0),
        ],
        primary_key=("id",),
    )


class TestTableSchema:
    def test_column_lookup_is_case_insensitive(self):
        schema = make_schema()
        assert schema.column_index("NAME") == 1
        assert schema.column("AGE").name == "age"
        assert schema.has_column("Id")

    def test_unknown_column_raises(self):
        with pytest.raises(CatalogError):
            make_schema().column_index("missing")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema(
                name="t",
                columns=[ColumnSchema("a", SQLType.INTEGER), ColumnSchema("A", SQLType.INTEGER)],
            )

    def test_add_column(self):
        schema = make_schema()
        schema.add_column(ColumnSchema("extra", SQLType.VARCHAR))
        assert schema.column_index("extra") == 3
        with pytest.raises(CatalogError):
            schema.add_column(ColumnSchema("extra", SQLType.VARCHAR))


class TestTable:
    def test_insert_and_length(self):
        table = Table(make_schema())
        table.insert_row((1, "ada", 36))
        table.insert_many([(2, "bob", 20), (3, "cyd", 25)])
        assert len(table) == 3

    def test_insert_wrong_arity_rejected(self):
        with pytest.raises(ConstraintViolation):
            Table(make_schema()).insert_row((1, "ada"))

    def test_not_null_enforced(self):
        with pytest.raises(ConstraintViolation):
            Table(make_schema()).insert_row((1, None, 10))

    def test_insert_named_uses_defaults(self):
        table = Table(make_schema())
        table.insert_named(("id", "name"), (1, "ada"))
        assert table.rows[0] == (1, "ada", 0)

    def test_insert_named_arity_mismatch(self):
        with pytest.raises(ConstraintViolation):
            Table(make_schema()).insert_named(("id",), (1, 2))

    def test_every_mutation_publishes_a_new_data(self):
        table = Table(make_schema())
        seen = [table.data]
        for mutate in (
            lambda: table.insert_row((1, "ada", 36)),
            lambda: table.insert_named(("id", "name"), (2, "bob")),
            lambda: table.insert_many([(3, "cy", 1), (4, "di", 2)]),
            lambda: table.publish(table.rows[1:]),
            table.truncate,
        ):
            mutate()
            assert all(table.data is not data for data in seen)
            seen.append(table.data)
        assert [len(data.rows) for data in seen] == [0, 1, 2, 4, 3, 0]


class TestCatalog:
    def test_create_and_drop_table(self):
        catalog = Catalog()
        catalog.create_table(make_schema())
        assert catalog.has_table("people")
        assert "People" in catalog.table_names()
        catalog.drop_table("PEOPLE")
        assert not catalog.has_table("people")

    def test_duplicate_relation_rejected(self):
        catalog = Catalog()
        catalog.create_table(make_schema())
        with pytest.raises(CatalogError):
            catalog.create_table(make_schema())
        with pytest.raises(CatalogError):
            catalog.create_view("people", parse_query("SELECT 1"))

    def test_drop_missing_table(self):
        catalog = Catalog()
        with pytest.raises(CatalogError):
            catalog.drop_table("nope")
        catalog.drop_table("nope", if_exists=True)  # no error

    def test_views(self):
        catalog = Catalog()
        catalog.create_view("v", parse_query("SELECT 1 AS one"))
        assert catalog.has_view("V")
        assert isinstance(catalog.view("v"), ast.Select)
        catalog.drop_view("v")
        assert not catalog.has_view("v")
        with pytest.raises(CatalogError):
            catalog.drop_view("v")

    def test_functions(self):
        catalog = Catalog()
        catalog.register_function(PythonFunction("double", lambda x: x * 2))
        assert catalog.has_function("DOUBLE")
        assert catalog.function("double").name == "double"
        with pytest.raises(CatalogError):
            catalog.function("triple")

    def test_foreign_keys_filtered_by_table(self):
        catalog = Catalog()
        catalog.add_foreign_key(ForeignKey(None, "orders", ("custkey",), "customer", ("custkey",)))
        catalog.add_foreign_key(ForeignKey(None, "lineitem", ("orderkey",), "orders", ("orderkey",)))
        assert len(catalog.foreign_keys()) == 2
        assert len(catalog.foreign_keys("orders")) == 1
