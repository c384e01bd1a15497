"""SQL dialects: how one target DBMS spells literals, identifiers and idioms.

The MTBase middleware is backend-agnostic — the rewritten statement is an AST,
and each execution backend renders it through the :class:`Dialect` its DBMS
understands.  A dialect bundles

* **identifier quoting** — which names need quoting and with which character,
* **placeholder style** — ``$1`` (the engine's SQL-function parameters) vs.
  SQLite's ``?1``,
* **literal rendering** — strings, dates, intervals, booleans,
* **idiom translation** — ``EXTRACT``/``SUBSTRING``/date±interval arithmetic
  and DDL type names, for targets that spell them differently.

:data:`DEFAULT_DIALECT` reproduces the historic printer output byte for byte
(and therefore round-trips through :mod:`repro.sql.parser`);
:data:`SQLITE_DIALECT` emits SQL executable by the :mod:`sqlite3` module.
"""

from __future__ import annotations

import re
from typing import Any, Optional

from ..errors import SQLError
from .types import Date, Interval, IntervalUnit

_SAFE_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*\Z")
_PARAMETER = re.compile(r"\$(\d+)\Z")


#: the words the ``repro`` grammar reads as keywords somewhere
GRAMMAR_KEYWORDS = frozenset(
    """
    AND AS ASC BETWEEN BY CASE CHECK COMPARABLE CONSTRAINT CONVERTIBLE CREATE
    CROSS DATE DAY DEFAULT DELETE DESC DISTINCT DROP ELSE END EXISTS EXTRACT
    FALSE FOR FOREIGN FROM FULL FUNCTION GLOBAL GRANT GROUP HAVING IF IMMUTABLE
    IN INNER INSERT INTERVAL INTO IS JOIN KEY LANGUAGE LEFT LIKE LIMIT MONTH NOT
    NULL ON OR ORDER OUTER PRIMARY REFERENCES RETURNS REVOKE RIGHT SCOPE SELECT
    SET SPECIFIC SQL SUBSTRING TABLE THEN TO TRUE UNION UNIQUE UPDATE VALUES
    VIEW WHEN WHERE YEAR
    """.split()
)


class Dialect:
    """The default dialect: the ``repro`` SQL grammar itself.

    Its output is what the in-memory engine parses: a name that is no safe
    identifier or is one of the grammar's keywords prints double-quoted, so
    it parses back as the same name, and ``DATE``/``INTERVAL`` literals keep
    their ANSI form.
    """

    name = "default"
    identifier_quote = '"'
    #: words that must be quoted when used as an identifier
    reserved_words: frozenset[str] = GRAMMAR_KEYWORDS

    # -- identifiers ---------------------------------------------------------

    def quote_identifier(self, name: str) -> str:
        """Quote ``name`` if this dialect requires it (see :meth:`needs_quoting`)."""
        if self.needs_quoting(name):
            quote = self.identifier_quote
            return f"{quote}{name.replace(quote, quote * 2)}{quote}"
        return name

    def qualified_identifier(self, name: str, table: Optional[str] = None) -> str:
        """``table.name`` with each part quoted as required."""
        if table:
            return f"{self.quote_identifier(table)}.{self.quote_identifier(name)}"
        return self.quote_identifier(name)

    def needs_quoting(self, name: str) -> bool:
        """Whether ``name`` must be quoted (reserved word or unsafe chars)."""
        return not _SAFE_IDENTIFIER.match(name) or name.upper() in self.reserved_words

    # -- placeholders --------------------------------------------------------

    def placeholder(self, index: int) -> str:
        """The text of the ``index``-th (1-based) statement parameter."""
        return f"${index}"

    def parameter_index(self, name: str) -> Optional[int]:
        """If ``name`` is a parameter reference (``$n``), its 1-based index."""
        match = _PARAMETER.match(name)
        return int(match.group(1)) if match else None

    def render_parameter(self, index: int, name: Optional[str] = None) -> str:
        """How a bind-parameter slot is spelled in statement text.

        The default dialect keeps the client-facing spelling — ``:name`` for
        named parameters, numbered ``?N`` for positional ones (unambiguous
        and round-trippable through the parser, unlike a bare ``?``).
        """
        return f":{name}" if name else f"?{index}"

    # -- literals ------------------------------------------------------------

    def format_literal(self, value: Any) -> str:
        """Render any Python literal value in this dialect's spelling."""
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return self.format_boolean(value)
        if isinstance(value, (int, float)):
            if isinstance(value, float) and value == int(value):
                return f"{value:.1f}"
            return str(value)
        if isinstance(value, Date):
            return self.format_date(value)
        if isinstance(value, Interval):
            return self.format_interval(value)
        return self.format_string(str(value))

    def format_string(self, value: str) -> str:
        """A single-quoted string literal (quotes doubled)."""
        return "'" + value.replace("'", "''") + "'"

    def format_boolean(self, value: bool) -> str:
        """A boolean literal (ANSI ``TRUE``/``FALSE``)."""
        return "TRUE" if value else "FALSE"

    def format_date(self, value: Date) -> str:
        """A date literal (ANSI ``DATE '...'``)."""
        return f"DATE '{value}'"

    def format_interval(self, value: Interval) -> str:
        """An interval literal (ANSI ``INTERVAL 'n' UNIT``)."""
        return f"INTERVAL '{value.amount}' {value.unit.value}"

    # -- idioms --------------------------------------------------------------

    def render_extract(self, part: str, operand: str) -> str:
        """``EXTRACT(part FROM operand)`` in this dialect's spelling."""
        return f"EXTRACT({part} FROM {operand})"

    def render_substring(self, expr: str, start: str, length: Optional[str]) -> str:
        """``SUBSTRING(expr FROM start [FOR length])`` in this dialect."""
        if length is None:
            return f"SUBSTRING({expr} FROM {start})"
        return f"SUBSTRING({expr} FROM {start} FOR {length})"

    def render_date_arithmetic(
        self, left: str, op: str, interval: Interval
    ) -> Optional[str]:
        """Render ``<date expr> ± INTERVAL``; ``None`` keeps the generic form."""
        return None

    def render_type(self, type_name: str) -> str:
        """Map a DDL column type to this dialect's spelling."""
        return type_name


class SQLiteDialect(Dialect):
    """SQL as the :mod:`sqlite3` module (SQLite ≥ 3.35) executes it.

    Dates are stored as ISO-8601 ``TEXT`` (which preserves calendar order
    under string comparison), intervals become ``date(x, '+N unit')``
    modifiers, ``EXTRACT`` becomes ``strftime`` and parameters use the
    ``?NNN`` style.
    """

    name = "sqlite"
    identifier_quote = '"'
    reserved_words = frozenset(
        """
        ABORT ACTION ADD AFTER ALL ALTER ANALYZE AND AS ASC ATTACH AUTOINCREMENT
        BEFORE BEGIN BETWEEN BY CASCADE CASE CAST CHECK COLLATE COLUMN COMMIT
        CONFLICT CONSTRAINT CREATE CROSS CURRENT CURRENT_DATE CURRENT_TIME
        CURRENT_TIMESTAMP DATABASE DEFAULT DEFERRABLE DEFERRED DELETE DESC
        DETACH DISTINCT DO DROP EACH ELSE END ESCAPE EXCEPT EXCLUSIVE EXISTS
        EXPLAIN FAIL FILTER FOR FOREIGN FROM FULL GLOB GROUP HAVING IF IGNORE
        IMMEDIATE IN INDEX INDEXED INITIALLY INNER INSERT INSTEAD INTERSECT
        INTO IS ISNULL JOIN KEY LEFT LIKE LIMIT MATCH NATURAL NO NOT NOTHING
        NOTNULL NULL OF OFFSET ON OR ORDER OUTER OVER PLAN PRAGMA PRIMARY QUERY
        RAISE RECURSIVE REFERENCES REGEXP REINDEX RELEASE RENAME REPLACE
        RESTRICT RIGHT ROLLBACK ROW ROWS SAVEPOINT SELECT SET TABLE TEMP
        TEMPORARY THEN TO TRANSACTION TRIGGER UNION UNIQUE UPDATE USING VACUUM
        VALUES VIEW VIRTUAL WHEN WHERE WINDOW WITH WITHOUT
        """.split()
    )

    _STRFTIME_PARTS = {"YEAR": "%Y", "MONTH": "%m", "DAY": "%d"}
    _TYPE_MAP = {
        "INTEGER": "INTEGER",
        "INT": "INTEGER",
        "BIGINT": "INTEGER",
        "SMALLINT": "INTEGER",
        "DECIMAL": "REAL",
        "NUMERIC": "REAL",
        "FLOAT": "REAL",
        "DOUBLE": "REAL",
        "REAL": "REAL",
        "VARCHAR": "TEXT",
        "CHAR": "TEXT",
        "TEXT": "TEXT",
        "STRING": "TEXT",
        "DATE": "TEXT",
        "BOOLEAN": "INTEGER",
        "BOOL": "INTEGER",
    }

    def placeholder(self, index: int) -> str:
        """SQLite's numbered ``?NNN`` parameter style."""
        return f"?{index}"

    def render_parameter(self, index: int, name: Optional[str] = None) -> str:
        """Bind parameters pass through natively as ``?NNN``.

        Named parameters are rendered by slot number too: the backend binds a
        positional value vector, so ``:name`` must not reach SQLite (its
        named style expects a mapping).
        """
        return f"?{index}"

    def format_boolean(self, value: bool) -> str:
        """SQLite has no booleans; integers 1/0."""
        return "1" if value else "0"

    def format_date(self, value: Date) -> str:
        """Dates are ISO-8601 TEXT (string comparison preserves order)."""
        return f"'{value}'"

    def format_interval(self, value: Interval) -> str:
        """Rejected: intervals only exist inside date arithmetic here."""
        raise SQLError(
            "SQLite has no interval literals; intervals are only valid as the "
            "right operand of date arithmetic"
        )

    def render_extract(self, part: str, operand: str) -> str:
        """``EXTRACT`` via ``strftime`` + CAST."""
        fmt = self._STRFTIME_PARTS.get(part.upper())
        if fmt is None:
            raise SQLError(f"cannot EXTRACT({part} ...) in the sqlite dialect")
        return f"CAST(strftime('{fmt}', {operand}) AS INTEGER)"

    def render_substring(self, expr: str, start: str, length: Optional[str]) -> str:
        """``SUBSTRING`` via SQLite's comma-style ``SUBSTR``."""
        if length is None:
            return f"SUBSTR({expr}, {start})"
        return f"SUBSTR({expr}, {start}, {length})"

    def render_date_arithmetic(
        self, left: str, op: str, interval: Interval
    ) -> Optional[str]:
        """``date ± INTERVAL`` via ``date(x, '+N unit')`` modifiers."""
        if op not in ("+", "-"):
            return None
        # fold the operator into the amount: INTERVAL '-3' DAY subtracted is
        # +3 days, and '+-3 day' would silently evaluate to NULL in SQLite
        signed = -interval.amount if op == "-" else interval.amount
        unit = {
            IntervalUnit.DAY: "day",
            IntervalUnit.MONTH: "month",
            IntervalUnit.YEAR: "year",
        }[interval.unit]
        return f"date({left}, '{signed:+d} {unit}')"

    def render_type(self, type_name: str) -> str:
        """Map catalog types onto SQLite's affinities (DECIMAL→REAL, ...)."""
        base = type_name.strip().upper()
        if "(" in base:
            base = base[: base.index("(")].strip()
        return self._TYPE_MAP.get(base, "TEXT")


DEFAULT_DIALECT = Dialect()
SQLITE_DIALECT = SQLiteDialect()

DIALECTS: dict[str, Dialect] = {
    DEFAULT_DIALECT.name: DEFAULT_DIALECT,
    SQLITE_DIALECT.name: SQLITE_DIALECT,
}


def get_dialect(name: str) -> Dialect:
    """Look a dialect up by name (``"default"``, ``"sqlite"``)."""
    try:
        return DIALECTS[name.lower()]
    except KeyError as exc:
        raise SQLError(
            f"unknown SQL dialect {name!r}; known: {sorted(DIALECTS)}"
        ) from exc
