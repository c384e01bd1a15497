"""Generic AST transformation helpers shared by the executor and the rewriter.

Every walk and rebuild here reads a node's shape from the node itself
(:meth:`~repro.sql.ast.Expression.children` /
:meth:`~repro.sql.ast.Expression.with_children`), so none of them names an
expression class:

* :func:`transform_expression` applies a function top-down: the function sees
  each node first; a node it returns replaces that subtree as-is, otherwise
  the children are transformed and the node is rebuilt — only when a child
  actually changed, so an untouched subtree keeps its identity.  Sub-queries
  nested inside expressions are left untouched unless ``descend_subqueries``
  is set.
* :func:`walk_expression` yields the nodes of one expression in pre-order.
* :func:`statement_expressions` / :func:`transform_statement` are the same two
  operations over a whole ``SELECT`` / ``INSERT`` / ``UPDATE`` / ``DELETE``,
  every nested query included — the seam parameter discovery and binding
  (:mod:`repro.sql.params`) are written over.

The second half of the module splits a (rewritten, plain-SQL) ``SELECT`` into
a *per-shard query* plus its *merge* for scatter-gather execution over a
tenant-partitioned cluster (:mod:`repro.cluster`):

* :func:`split_row_stream` — non-aggregate queries: the shards stream rows;
  a *merge query* over their union re-applies ``DISTINCT``/``ORDER BY``/
  ``LIMIT``,
* :func:`split_partial_aggregates` — aggregate queries: the shards compute
  partial aggregates per group (``AVG`` decomposed into ``SUM``/``COUNT``);
  a *merge query* over their output re-aggregates and re-applies
  ``HAVING``/``ORDER BY``.

Either way the coordinator's engine runs the merge query.

Both raise :class:`~repro.errors.SplitError` when the statement has no such
decomposition; the cluster planner then falls back to a plan that does not
need one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from operator import is_
from typing import Callable, Iterable, Iterator, Optional

from ..errors import SplitError
from . import ast

TransformFn = Callable[[ast.Expression], Optional[ast.Expression]]


def transform_expression(
    expr: Optional[ast.Expression],
    fn: TransformFn,
    descend_subqueries: bool = False,
) -> Optional[ast.Expression]:
    """Return the expression tree with ``fn`` applied at every node."""
    if expr is None:
        return None
    replacement = fn(expr)
    if replacement is not None:
        return replacement
    if descend_subqueries and isinstance(expr, ast.SUBQUERY_NODES):
        expr = replace(expr, query=transform_select(expr.query, fn))
    children = expr.children()
    rebuilt = [transform_expression(child, fn, descend_subqueries) for child in children]
    return expr if all(map(is_, rebuilt, children)) else expr.with_children(rebuilt)


def transform_select(select: ast.Select, fn: TransformFn) -> ast.Select:
    """Apply an expression transform to every expression of a SELECT.

    FROM-clause sub-queries are transformed recursively as well; this is what
    the MTSQL rewrite passes rely on.
    """
    new_select = copy.copy(select)
    new_select.items = [
        ast.SelectItem(expr=transform_expression(item.expr, fn, True), alias=item.alias)
        for item in select.items
    ]
    new_select.from_items = [transform_from_item(item, fn) for item in select.from_items]
    new_select.where = transform_expression(select.where, fn, True)
    new_select.group_by = [transform_expression(expr, fn, True) for expr in select.group_by]
    new_select.having = transform_expression(select.having, fn, True)
    new_select.order_by = [
        ast.OrderItem(expr=transform_expression(order.expr, fn, True), descending=order.descending)
        for order in select.order_by
    ]
    return new_select


def transform_from_item(item: ast.FromItem, fn: TransformFn) -> ast.FromItem:
    """Apply an expression transform to one FROM item (recursing into joins)."""
    if isinstance(item, ast.TableRef):
        return ast.TableRef(name=item.name, alias=item.alias)
    if isinstance(item, ast.SubqueryRef):
        return ast.SubqueryRef(query=transform_select(item.query, fn), alias=item.alias)
    if isinstance(item, ast.Join):
        return ast.Join(
            left=transform_from_item(item.left, fn),
            right=transform_from_item(item.right, fn),
            join_type=item.join_type,
            condition=transform_expression(item.condition, fn, True),
            alias=item.alias,
        )
    return item


def transform_statement(statement: ast.Statement, fn: TransformFn) -> ast.Statement:
    """Apply an expression transform to every expression of a statement.

    Covers ``SELECT`` (see :func:`transform_select`), ``INSERT`` (``VALUES``
    rows and the source query of ``INSERT ... SELECT``), ``UPDATE`` and
    ``DELETE``, sub-queries included; a statement of any other kind holds no
    expression and is returned as it is.
    """

    def apply(expr: Optional[ast.Expression]) -> Optional[ast.Expression]:
        return transform_expression(expr, fn, True)

    if isinstance(statement, ast.Select):
        return transform_select(statement, fn)
    if isinstance(statement, ast.Insert):
        return replace(
            statement,
            rows=[tuple(map(apply, row)) for row in statement.rows],
            query=transform_select(statement.query, fn) if statement.query is not None else None,
        )
    if isinstance(statement, ast.Update):
        return replace(
            statement,
            assignments=[
                ast.Assignment(column=assignment.column, value=apply(assignment.value))
                for assignment in statement.assignments
            ],
            where=apply(statement.where),
        )
    if isinstance(statement, ast.Delete):
        return replace(statement, where=apply(statement.where))
    return statement


def clone_select(select: ast.Select) -> ast.Select:
    """Deep-ish copy of a SELECT (expressions are immutable, clauses are new)."""
    return transform_select(select, lambda node: None)


def walk_expression(expr: Optional[ast.Expression]) -> Iterator[ast.Expression]:
    """Yield every node of an expression in pre-order (sub-query bodies excluded)."""
    stack = [expr] if expr is not None else []
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children()[::-1])


# ---------------------------------------------------------------------------
# Statement-level walks
# ---------------------------------------------------------------------------


def walk_from_items(items: Iterable[ast.FromItem]) -> Iterator[ast.FromItem]:
    """Yield every FROM item in pre-order: a join, then its two sides."""
    for item in items:
        yield item
        if isinstance(item, ast.Join):
            yield from walk_from_items((item.left, item.right))


def walk_selects(select: ast.Select) -> Iterator[ast.Select]:
    """Yield a SELECT and every sub-query nested anywhere inside it."""
    yield select
    for item in walk_from_items(select.from_items):
        if isinstance(item, ast.SubqueryRef):
            yield from walk_selects(item.query)
    for expr in iter_select_expressions(select):
        for query in _subqueries(expr):
            yield from walk_selects(query)


def _subqueries(expr: ast.Expression) -> Iterator[ast.Select]:
    """The bodies of the sub-query nodes of one expression."""
    for node in walk_expression(expr):
        if isinstance(node, ast.SUBQUERY_NODES):
            yield node.query


def iter_select_expressions(select: ast.Select) -> Iterator[ast.Expression]:
    """Yield every top-level expression of one SELECT, join conditions
    included (its sub-queries' expressions are not)."""
    for item in select.items:
        yield item.expr
    for from_item in walk_from_items(select.from_items):
        if isinstance(from_item, ast.Join) and from_item.condition is not None:
            yield from_item.condition
    if select.where is not None:
        yield select.where
    yield from select.group_by
    if select.having is not None:
        yield select.having
    for order in select.order_by:
        yield order.expr


def _dml_expressions(statement: ast.Statement) -> list[ast.Expression]:
    """The expressions an INSERT / UPDATE / DELETE holds directly."""
    if isinstance(statement, ast.Insert):
        return [value for row in statement.rows for value in row]
    found: list[ast.Expression] = []
    if isinstance(statement, ast.Update):
        found.extend(assignment.value for assignment in statement.assignments)
    if isinstance(statement, (ast.Update, ast.Delete)) and statement.where is not None:
        found.append(statement.where)
    return found


def statement_selects(statement: ast.Statement) -> Iterator[ast.Select]:
    """Yield every SELECT of a statement: the query itself, the source of an
    ``INSERT ... SELECT`` and each sub-query nested anywhere in either or in
    a DML statement's expressions."""
    if isinstance(statement, ast.Select):
        yield from walk_selects(statement)
        return
    for expr in _dml_expressions(statement):
        for query in _subqueries(expr):
            yield from walk_selects(query)
    if isinstance(statement, ast.Insert) and statement.query is not None:
        yield from walk_selects(statement.query)


def statement_expressions(statement: ast.Statement) -> Iterator[ast.Expression]:
    """Yield every expression tree of a statement, its nested queries' included."""
    yield from _dml_expressions(statement)
    for select in statement_selects(statement):
        yield from iter_select_expressions(select)


def referenced_table_names(statement: ast.Statement) -> set[str]:
    """Lower-cased names of every base table / view a statement references.

    For DML this includes tables referenced by sub-queries anywhere in the
    statement — the cluster layer routes on the full reference set, not just
    the target table.
    """
    names: set[str] = set()
    if isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
        names.add(statement.table.lower())
    for select in statement_selects(statement):
        for item in walk_from_items(select.from_items):
            if isinstance(item, ast.TableRef):
                names.add(item.name.lower())
    return names


def count_nodes(node: Optional[ast.Node]) -> int:
    """Total AST nodes in a statement or expression tree (sub-queries included).

    The size metric behind the compiler's per-pass instrumentation
    (:mod:`repro.compile`): every SELECT, FROM item, select/order item and
    expression node counts as one.
    """
    if node is None:
        return 0
    if isinstance(node, ast.Select):
        total = 1 + len(node.items) + len(node.order_by)
        for item in walk_from_items(node.from_items):
            total += 1
            if isinstance(item, ast.SubqueryRef):
                total += count_nodes(item.query)
        return total + sum(map(count_nodes, iter_select_expressions(node)))
    total = 0
    for sub in walk_expression(node):
        total += 1
        if isinstance(sub, ast.SUBQUERY_NODES):
            total += count_nodes(sub.query)
    return total


def find_aggregate_calls(expr: Optional[ast.Expression]) -> list[ast.FunctionCall]:
    """All aggregate calls in an expression (sub-queries excluded)."""
    return [
        node
        for node in walk_expression(expr)
        if isinstance(node, ast.FunctionCall) and node.is_aggregate
    ]


def select_aggregate_calls(select: ast.Select) -> list[ast.FunctionCall]:
    """Aggregate calls of one SELECT's own clauses (items, HAVING, ORDER BY)."""
    aggregates: list[ast.FunctionCall] = []
    for item in select.items:
        aggregates.extend(find_aggregate_calls(item.expr))
    aggregates.extend(find_aggregate_calls(select.having))
    for order in select.order_by:
        aggregates.extend(find_aggregate_calls(order.expr))
    return aggregates


# ---------------------------------------------------------------------------
# Per-shard query + merge splits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowStreamSplit:
    """A non-aggregate query split into a per-shard query and a merge query.

    ``shard_query`` projects the original SELECT items as ``mt_col_<i>``,
    followed by a hidden ``mt_col_<i>`` per ``ORDER BY`` key that is not in
    the SELECT list, and drops ``ORDER BY`` / ``LIMIT``.  ``merge_query`` is
    ``SELECT [DISTINCT] mt_col_0, … FROM`` :data:`MERGE_RELATION` ``ORDER BY
    mt_col_<p> … LIMIT n``: the engine's own ``DISTINCT``, ordering and
    ``LIMIT`` over the union of the shard streams, hidden keys projected away.
    It is ``None`` when the query has none of the three: the union, in shard
    order, is then the answer.
    """

    shard_query: ast.Select
    merge_query: Optional[ast.Select]


@dataclass(frozen=True)
class AggregateSplit:
    """An aggregate query split into a per-shard query and a merge query.

    The two halves are the paper's aggregation distribution (§4.2.2,
    Listing 16) cut at the shard boundary.  ``shard_query`` is the inner
    half: it projects the group-key expressions as ``mt_key_<i>`` followed by
    one partial-aggregate column per distinct aggregate call
    (``mt_part_<k>``; ``AVG`` ships a partial ``SUM`` and ``COUNT`` as
    ``mt_part_<k>s`` / ``mt_part_<k>c``) and drops ``HAVING`` / ``ORDER BY``
    / ``LIMIT`` / ``DISTINCT``.  ``merge_query`` is the outer half, written
    over exactly those output aliases as the relation
    :data:`MERGE_RELATION`: the original SELECT items, ``HAVING`` and
    ``ORDER BY`` with every group-key text replaced by its key column and
    every aggregate text by its combine form, ``GROUP BY`` the key columns,
    ``DISTINCT`` / ``LIMIT`` carried over.  The coordinator substitutes the
    gathered shard rows for the relation and lets the engine run it.

    ``key_texts`` and ``aggregate_texts`` are the printed group-key
    expressions and aggregate calls the merge query resolved — the texts the
    cluster planner's evaluability check treats as bound.
    """

    shard_query: ast.Select
    merge_query: ast.Select
    key_texts: tuple[str, ...]
    aggregate_texts: tuple[str, ...]


#: name of the relation a merge query reads: the gathered shard-query rows
MERGE_RELATION = "mt_partials"

_MERGEABLE_AGGREGATES = frozenset({"SUM", "COUNT", "MIN", "MAX", "AVG"})


def split_row_stream(select: ast.Select) -> RowStreamSplit:
    """Split a non-aggregate SELECT into a per-shard stream + merge query.

    Raises :class:`SplitError` for aggregate/grouped queries, for ``*`` items
    (their width is unknown until a shard answers) and for DISTINCT queries
    whose ORDER BY is not part of the SELECT list (a hidden sort column would
    change the DISTINCT row identity).
    """
    if select.group_by or select_aggregate_calls(select):
        raise SplitError("row-stream split needs a non-aggregate query")
    if any(isinstance(item.expr, ast.Star) for item in select.items):
        raise SplitError("row-stream split needs an explicit SELECT list")
    shard_query = clone_select(select)
    shard_query.items = [
        ast.SelectItem(expr=item.expr, alias=f"mt_col_{position}")
        for position, item in enumerate(select.items)
    ]
    shard_query.order_by = []
    shard_query.limit = None

    alias_positions = {
        item.alias.lower(): position
        for position, item in enumerate(select.items)
        if item.alias is not None
    }
    item_positions = {
        ast.Node.to_sql(item.expr): position for position, item in enumerate(select.items)
    }
    order_by: list[ast.OrderItem] = []
    for order in select.order_by:
        position = _order_key_position(order.expr, alias_positions, item_positions)
        if position is None:
            if select.distinct:
                raise SplitError(
                    "DISTINCT with an ORDER BY key outside the SELECT list"
                )
            position = len(shard_query.items)
            shard_query.items.append(
                ast.SelectItem(expr=order.expr, alias=f"mt_col_{position}")
            )
        order_by.append(
            ast.OrderItem(
                expr=ast.Column(name=f"mt_col_{position}"), descending=order.descending
            )
        )
    if not (order_by or select.distinct or select.limit is not None):
        return RowStreamSplit(shard_query=shard_query, merge_query=None)
    merge_query = ast.Select(
        items=[
            ast.SelectItem(expr=ast.Column(name=f"mt_col_{position}"))
            for position in range(len(select.items))
        ],
        from_items=[ast.TableRef(name=MERGE_RELATION)],
        order_by=order_by,
        limit=select.limit,
        distinct=select.distinct,
    )
    return RowStreamSplit(shard_query=shard_query, merge_query=merge_query)


def _order_key_position(
    expr: ast.Expression,
    alias_positions: dict[str, int],
    item_positions: dict[str, int],
) -> Optional[int]:
    if isinstance(expr, ast.Column) and expr.table is None:
        position = alias_positions.get(expr.name.lower())
        if position is not None:
            return position
    return item_positions.get(ast.Node.to_sql(expr))


def split_partial_aggregates(select: ast.Select) -> AggregateSplit:
    """Split an aggregate SELECT into a per-shard query plus a merge query.

    Raises :class:`SplitError` when any aggregate is not partial-mergeable
    (DISTINCT aggregates, unknown functions).
    """
    aggregates = select_aggregate_calls(select)
    if not aggregates and not select.group_by:
        raise SplitError("partial-aggregate split needs an aggregate query")

    unique: dict[str, ast.FunctionCall] = {}
    for call in aggregates:
        unique.setdefault(ast.Node.to_sql(call), call)

    key_texts = tuple(ast.Node.to_sql(expr) for expr in select.group_by)
    keys = [ast.Column(name=f"mt_key_{position}") for position in range(len(key_texts))]
    items = [
        ast.SelectItem(expr=expr, alias=key.name)
        for expr, key in zip(select.group_by, keys)
    ]
    # printed sub-expression of the original -> its form over the shard rows
    merged: dict[str, ast.Expression] = {}
    for text, key in zip(key_texts, keys):
        merged.setdefault(text, key)
    for position, (text, call) in enumerate(unique.items()):
        name = call.name.upper()
        if call.distinct or name not in _MERGEABLE_AGGREGATES:
            raise SplitError(f"aggregate {text} is not partial-mergeable")
        partial = f"mt_part_{position}"
        if name == "AVG":
            items.append(ast.SelectItem(expr=ast.func("SUM", *call.args), alias=f"{partial}s"))
            items.append(ast.SelectItem(expr=ast.func("COUNT", *call.args), alias=f"{partial}c"))
            total = ast.func("SUM", ast.Column(name=f"{partial}s"))
            count = ast.func("SUM", ast.Column(name=f"{partial}c"))
            # every shard of a global aggregate answers with a count of 0:
            # AVG over no rows is NULL, not a division by zero
            merged[text] = ast.Case(
                whens=(
                    ast.CaseWhen(
                        condition=ast.BinaryOp(">", count, ast.Literal(0)),
                        result=ast.BinaryOp("/", total, count),
                    ),
                )
            )
        else:
            items.append(ast.SelectItem(expr=call, alias=partial))
            combine = name if name in ("MIN", "MAX") else "SUM"
            merged[text] = ast.func(combine, ast.Column(name=partial))

    shard_query = clone_select(select)
    shard_query.items = items
    shard_query.having = None
    shard_query.order_by = []
    shard_query.limit = None
    shard_query.distinct = False

    def over_shard_rows(node: ast.Expression) -> Optional[ast.Expression]:
        return merged.get(ast.Node.to_sql(node))

    merge_query = ast.Select(
        items=[
            ast.SelectItem(
                expr=transform_expression(item.expr, over_shard_rows), alias=item.alias
            )
            for item in select.items
        ],
        from_items=[ast.TableRef(name=MERGE_RELATION)],
        group_by=list(keys),
        having=transform_expression(select.having, over_shard_rows),
        order_by=[
            ast.OrderItem(
                expr=transform_expression(order.expr, over_shard_rows),
                descending=order.descending,
            )
            for order in select.order_by
        ],
        limit=select.limit,
        distinct=select.distinct,
    )
    return AggregateSplit(
        shard_query=shard_query,
        merge_query=merge_query,
        key_texts=key_texts,
        aggregate_texts=tuple(unique),
    )
