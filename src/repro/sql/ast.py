"""Abstract syntax tree for the SQL / MTSQL dialect understood by ``repro``.

Every node is a frozen-enough dataclass (mutable lists are used where the
rewriter needs to replace children wholesale, but the idiom throughout the
code base is to build *new* nodes rather than mutate existing ones).

An expression class states its own shape once, as ``child_fields``: the names
of the fields that hold its sub-expressions.  :meth:`Expression.children` and
:meth:`Expression.with_children` read that tuple, and every generic walk or
rebuild (:mod:`repro.sql.transform`) goes through those two methods — a new
node type is one class here, not a branch in every walker.

The same AST is shared by three consumers:

* the engine executes ``Select`` / DML / DDL nodes directly,
* the MTSQL rewriter transforms MTSQL ``Select`` trees into plain SQL trees,
* the printer renders any node back to SQL text.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice
from typing import Any, ClassVar, Iterable, Optional, Union


class Node:
    """Base class for all AST nodes (statements and expressions)."""

    def to_sql(self) -> str:
        """Render this node as SQL text (delegates to :mod:`repro.sql.printer`)."""
        from .printer import to_sql

        return to_sql(self)


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression(Node):
    """Base class for scalar expressions.

    ``child_fields`` names, in evaluation order, the fields holding this
    node's sub-expressions: one expression, an optional one (``None`` holds
    no child) or a tuple of them.  A nested :class:`Select` is *not* a child:
    sub-query bodies are statements of their own.
    """

    child_fields: ClassVar[tuple[str, ...]] = ()

    def children(self) -> tuple["Expression", ...]:
        """The direct sub-expressions, left to right."""
        if not self.child_fields:
            return ()
        found: list[Expression] = []
        for name in self.child_fields:
            value = getattr(self, name)
            if isinstance(value, Expression):
                found.append(value)
            elif value is not None:
                found.extend(value)
        return tuple(found)

    def with_children(self, children: Iterable["Expression"]) -> "Expression":
        """This node over ``children``, given in the order and number
        :meth:`children` returns them."""
        if not self.child_fields:
            return self
        remaining = iter(children)
        fields: dict[str, Any] = {}
        for name in self.child_fields:
            value = getattr(self, name)
            if isinstance(value, Expression):
                fields[name] = next(remaining)
            elif value is not None:
                fields[name] = tuple(islice(remaining, len(value)))
        return replace(self, **fields)


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: number, string, date, interval, boolean or NULL."""

    value: Any


@dataclass(frozen=True)
class Parameter(Expression):
    """A bind-parameter placeholder: positional ``?``/``?NNN`` or named ``:name``.

    ``index`` is the 1-based slot the value binds to (assigned in first-use
    order by the parser; explicit ``?NNN`` pins it).  Named parameters share
    one slot per name, so ``:low`` appearing twice binds one value.  The
    whole compilation pipeline treats a parameter as an opaque scalar; values
    are bound at execute time — natively on backends whose DBMS supports
    numbered placeholders, as run constants of a memoized plan on the engine
    (see :mod:`repro.sql.params`).
    """

    index: int
    name: Optional[str] = None


@dataclass(frozen=True)
class Column(Expression):
    """A (possibly qualified) column reference such as ``E1.E_salary``."""

    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``alias.*`` in a SELECT list or inside COUNT(*)."""

    table: Optional[str] = None


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A scalar or aggregate function call.

    Aggregates are not syntactically distinguished; the executor and the
    MTSQL optimizer consult :data:`AGGREGATE_FUNCTIONS`.
    """

    name: str
    args: tuple[Expression, ...] = ()
    distinct: bool = False

    child_fields = ("args",)

    @property
    def is_aggregate(self) -> bool:
        return self.name.upper() in AGGREGATE_FUNCTIONS


AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


@dataclass(frozen=True)
class BinaryOp(Expression):
    """A binary operator: arithmetic, comparison, AND/OR or ``||``."""

    op: str
    left: Expression
    right: Expression

    child_fields = ("left", "right")


@dataclass(frozen=True)
class UnaryOp(Expression):
    """Unary ``NOT`` or ``-``."""

    op: str
    operand: Expression

    child_fields = ("operand",)


@dataclass(frozen=True)
class CaseWhen(Node):
    condition: Expression
    result: Expression


@dataclass(frozen=True)
class Case(Expression):
    """A searched ``CASE WHEN ... THEN ... ELSE ... END`` expression."""

    whens: tuple[CaseWhen, ...]
    else_result: Optional[Expression] = None

    def children(self) -> tuple[Expression, ...]:
        """Each branch's condition and result, then the ELSE result: a
        :class:`CaseWhen` is a pair of slots, not a node of its own."""
        found = [part for when in self.whens for part in (when.condition, when.result)]
        if self.else_result is not None:
            found.append(self.else_result)
        return tuple(found)

    def with_children(self, children: Iterable[Expression]) -> "Case":
        remaining = iter(children)
        whens = tuple(CaseWhen(next(remaining), next(remaining)) for _ in self.whens)
        else_result = next(remaining) if self.else_result is not None else None
        return replace(self, whens=whens, else_result=else_result)


@dataclass(frozen=True)
class InList(Expression):
    expr: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    child_fields = ("expr", "items")


@dataclass(frozen=True)
class InSubquery(Expression):
    expr: Expression
    query: "Select"
    negated: bool = False

    child_fields = ("expr",)


@dataclass(frozen=True)
class Exists(Expression):
    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Between(Expression):
    expr: Expression
    low: Expression
    high: Expression
    negated: bool = False

    child_fields = ("expr", "low", "high")


@dataclass(frozen=True)
class Like(Expression):
    expr: Expression
    pattern: Expression
    negated: bool = False

    child_fields = ("expr", "pattern")


@dataclass(frozen=True)
class IsNull(Expression):
    expr: Expression
    negated: bool = False

    child_fields = ("expr",)


@dataclass(frozen=True)
class ScalarSubquery(Expression):
    """A sub-query used as a scalar value, e.g. ``x > (SELECT AVG(...) ...)``."""

    query: "Select"


@dataclass(frozen=True)
class Extract(Expression):
    """``EXTRACT(YEAR FROM expr)`` and friends."""

    part: str
    expr: Expression

    child_fields = ("expr",)


@dataclass(frozen=True)
class Substring(Expression):
    """``SUBSTRING(expr FROM start [FOR length])`` (also accepts comma form)."""

    expr: Expression
    start: Expression
    length: Optional[Expression] = None

    child_fields = ("expr", "start", "length")


#: the expression classes whose ``query`` field holds a nested :class:`Select`
SUBQUERY_NODES = (ScalarSubquery, InSubquery, Exists)


# ---------------------------------------------------------------------------
# FROM clause items
# ---------------------------------------------------------------------------


class FromItem(Node):
    """Base class for things that can appear in a FROM clause."""

    alias: Optional[str]


@dataclass
class TableRef(FromItem):
    """A base table (or view) reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """Name under which this relation's columns are visible."""
        return self.alias or self.name


@dataclass
class SubqueryRef(FromItem):
    """A derived table: ``(SELECT ...) AS alias``."""

    query: "Select"
    alias: str = ""

    @property
    def binding(self) -> str:
        return self.alias


@dataclass
class RowsRef(FromItem):
    """A named relation whose rows each run supplies.

    Not produced by the parser and not printable: the cluster coordinator
    builds one per cluster plan as the FROM item of its merge query, and
    each run binds the alias to that run's gathered shard rows.
    """

    columns: tuple[str, ...]
    alias: str = ""


class JoinType(Enum):
    INNER = "INNER"
    LEFT = "LEFT"
    CROSS = "CROSS"


@dataclass
class Join(FromItem):
    """An explicit ``A JOIN B ON cond`` item."""

    left: FromItem
    right: FromItem
    join_type: JoinType = JoinType.INNER
    condition: Optional[Expression] = None
    alias: Optional[str] = None


# ---------------------------------------------------------------------------
# SELECT statement
# ---------------------------------------------------------------------------


@dataclass
class SelectItem(Node):
    expr: Expression
    alias: Optional[str] = None


@dataclass
class OrderItem(Node):
    expr: Expression
    descending: bool = False


@dataclass
class Select(Node):
    """A (sub-)query.

    ``from_items`` holds the comma-separated FROM entries; explicit joins are
    nested inside :class:`Join` items.
    """

    items: list[SelectItem] = field(default_factory=list)
    from_items: list[FromItem] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: list[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False


# ---------------------------------------------------------------------------
# DDL
# ---------------------------------------------------------------------------


class TableGenerality(Enum):
    """MTSQL table generality (§2.2): global vs tenant-specific."""

    GLOBAL = "GLOBAL"
    SPECIFIC = "SPECIFIC"


class Comparability(Enum):
    """MTSQL attribute comparability (§2.2, Table 1)."""

    COMPARABLE = "COMPARABLE"
    CONVERTIBLE = "CONVERTIBLE"
    SPECIFIC = "SPECIFIC"


@dataclass
class ColumnDef(Node):
    name: str
    type_name: str
    not_null: bool = False
    comparability: Optional[Comparability] = None
    to_universal: Optional[str] = None
    from_universal: Optional[str] = None
    default: Optional[Expression] = None


class ConstraintKind(Enum):
    PRIMARY_KEY = "PRIMARY KEY"
    FOREIGN_KEY = "FOREIGN KEY"
    CHECK = "CHECK"
    UNIQUE = "UNIQUE"


@dataclass
class TableConstraint(Node):
    kind: ConstraintKind
    name: Optional[str] = None
    columns: tuple[str, ...] = ()
    ref_table: Optional[str] = None
    ref_columns: tuple[str, ...] = ()
    check: Optional[Expression] = None


@dataclass
class CreateTable(Node):
    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    constraints: list[TableConstraint] = field(default_factory=list)
    generality: Optional[TableGenerality] = None


@dataclass
class CreateView(Node):
    name: str
    query: Select


@dataclass
class CreateFunction(Node):
    """``CREATE FUNCTION name (argtypes) RETURNS type AS 'body' LANGUAGE SQL``."""

    name: str
    arg_types: tuple[str, ...]
    return_type: str
    body: str
    language: str = "SQL"
    immutable: bool = False


@dataclass
class DropTable(Node):
    name: str
    if_exists: bool = False


@dataclass
class DropView(Node):
    name: str
    if_exists: bool = False


# ---------------------------------------------------------------------------
# DML
# ---------------------------------------------------------------------------


@dataclass
class Insert(Node):
    table: str
    columns: tuple[str, ...] = ()
    rows: list[tuple[Expression, ...]] = field(default_factory=list)
    query: Optional[Select] = None


@dataclass
class Assignment(Node):
    column: str
    value: Expression


@dataclass
class Update(Node):
    table: str
    assignments: list[Assignment] = field(default_factory=list)
    where: Optional[Expression] = None


@dataclass
class Delete(Node):
    table: str
    where: Optional[Expression] = None


# ---------------------------------------------------------------------------
# DCL and MTSQL session statements
# ---------------------------------------------------------------------------


@dataclass
class Grant(Node):
    privileges: tuple[str, ...]
    object_name: str
    grantee: Union[int, str]


@dataclass
class Revoke(Node):
    privileges: tuple[str, ...]
    object_name: str
    grantee: Union[int, str]


@dataclass
class SetScope(Node):
    """``SET SCOPE = "..."`` — the raw scope text, interpreted by the core layer."""

    scope_text: str


Statement = Union[
    Select,
    CreateTable,
    CreateView,
    CreateFunction,
    DropTable,
    DropView,
    Insert,
    Update,
    Delete,
    Grant,
    Revoke,
    SetScope,
]


# ---------------------------------------------------------------------------
# Convenience constructors used throughout the rewriter and tests
# ---------------------------------------------------------------------------


def col(name: str, table: Optional[str] = None) -> Column:
    return Column(name=name, table=table)


def lit(value: Any) -> Literal:
    return Literal(value)


def func(name: str, *args: Expression, distinct: bool = False) -> FunctionCall:
    return FunctionCall(name=name, args=tuple(args), distinct=distinct)


def and_(*conditions: Optional[Expression]) -> Optional[Expression]:
    """Combine conditions with AND, ignoring ``None`` entries."""
    present = [c for c in conditions if c is not None]
    if not present:
        return None
    result = present[0]
    for condition in present[1:]:
        result = BinaryOp("AND", result, condition)
    return result


def split_conjuncts(expr: Optional[Expression]) -> list[Expression]:
    """Split a predicate on top-level ANDs; inverse of :func:`and_`."""
    if expr is None:
        return []
    if isinstance(expr, BinaryOp) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]
