"""Generic AST transformation helpers shared by the executor and the rewriter.

:func:`transform_expression` rebuilds an expression tree bottom-up... actually
top-down: the supplied function sees each node first; when it returns a
replacement node that subtree is used as-is, otherwise the children are
transformed recursively and the node is rebuilt.  Sub-queries nested inside
expressions are left untouched unless ``descend_subqueries`` is set, in which
case their SELECT/WHERE/... expressions are transformed with the same
function.

The second half of the module splits a (rewritten, plain-SQL) ``SELECT`` into
a *per-shard query* plus its *merge* for scatter-gather execution over a
tenant-partitioned cluster (:mod:`repro.cluster`):

* :func:`split_row_stream` — non-aggregate queries: the shards stream rows,
  the coordinator re-sorts, deduplicates and applies ``LIMIT``,
* :func:`split_partial_aggregates` — aggregate queries: the shards compute
  partial aggregates per group (``AVG`` decomposed into ``SUM``/``COUNT``);
  a *merge query* over their output re-aggregates and re-applies
  ``HAVING``/``ORDER BY``, and the coordinator's engine runs it.

Both raise :class:`~repro.errors.SplitError` when the statement has no such
decomposition; the cluster planner then falls back to a plan that does not
need one.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional, Union

from ..errors import SplitError
from . import ast

TransformFn = Callable[[ast.Expression], Optional[ast.Expression]]


def transform_expression(
    expr: Optional[ast.Expression],
    fn: TransformFn,
    descend_subqueries: bool = False,
) -> Optional[ast.Expression]:
    """Return a new expression tree with ``fn`` applied at every node."""
    if expr is None:
        return None
    replacement = fn(expr)
    if replacement is not None:
        return replacement

    def recurse(child: Optional[ast.Expression]) -> Optional[ast.Expression]:
        return transform_expression(child, fn, descend_subqueries)

    if isinstance(expr, (ast.Literal, ast.Column, ast.Star, ast.Parameter)):
        return expr
    if isinstance(expr, ast.FunctionCall):
        return replace(expr, args=tuple(recurse(argument) for argument in expr.args))
    if isinstance(expr, ast.BinaryOp):
        return replace(expr, left=recurse(expr.left), right=recurse(expr.right))
    if isinstance(expr, ast.UnaryOp):
        return replace(expr, operand=recurse(expr.operand))
    if isinstance(expr, ast.Case):
        whens = tuple(
            ast.CaseWhen(condition=recurse(when.condition), result=recurse(when.result))
            for when in expr.whens
        )
        return replace(expr, whens=whens, else_result=recurse(expr.else_result))
    if isinstance(expr, ast.InList):
        return replace(
            expr,
            expr=recurse(expr.expr),
            items=tuple(recurse(item) for item in expr.items),
        )
    if isinstance(expr, ast.InSubquery):
        query = (
            transform_select(expr.query, fn) if descend_subqueries else expr.query
        )
        return replace(expr, expr=recurse(expr.expr), query=query)
    if isinstance(expr, ast.Exists):
        query = (
            transform_select(expr.query, fn) if descend_subqueries else expr.query
        )
        return replace(expr, query=query)
    if isinstance(expr, ast.ScalarSubquery):
        query = (
            transform_select(expr.query, fn) if descend_subqueries else expr.query
        )
        return replace(expr, query=query)
    if isinstance(expr, ast.Between):
        return replace(
            expr,
            expr=recurse(expr.expr),
            low=recurse(expr.low),
            high=recurse(expr.high),
        )
    if isinstance(expr, ast.Like):
        return replace(expr, expr=recurse(expr.expr), pattern=recurse(expr.pattern))
    if isinstance(expr, ast.IsNull):
        return replace(expr, expr=recurse(expr.expr))
    if isinstance(expr, ast.Extract):
        return replace(expr, expr=recurse(expr.expr))
    if isinstance(expr, ast.Substring):
        return replace(
            expr,
            expr=recurse(expr.expr),
            start=recurse(expr.start),
            length=recurse(expr.length),
        )
    return expr


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


def clone_select(select: ast.Select) -> ast.Select:
    """Deep-ish copy of a SELECT (expressions are immutable, clauses are new)."""
    return transform_select(select, lambda node: None)


def walk_expression(expr: Optional[ast.Expression]):
    """Yield every expression node in a tree (not descending into sub-queries)."""
    if expr is None:
        return
    yield expr
    if isinstance(expr, ast.BinaryOp):
        yield from walk_expression(expr.left)
        yield from walk_expression(expr.right)
    elif isinstance(expr, ast.UnaryOp):
        yield from walk_expression(expr.operand)
    elif isinstance(expr, ast.FunctionCall):
        for argument in expr.args:
            yield from walk_expression(argument)
    elif isinstance(expr, ast.Case):
        for when in expr.whens:
            yield from walk_expression(when.condition)
            yield from walk_expression(when.result)
        yield from walk_expression(expr.else_result)
    elif isinstance(expr, ast.InList):
        yield from walk_expression(expr.expr)
        for item in expr.items:
            yield from walk_expression(item)
    elif isinstance(expr, ast.InSubquery):
        yield from walk_expression(expr.expr)
    elif isinstance(expr, ast.Between):
        yield from walk_expression(expr.expr)
        yield from walk_expression(expr.low)
        yield from walk_expression(expr.high)
    elif isinstance(expr, ast.Like):
        yield from walk_expression(expr.expr)
        yield from walk_expression(expr.pattern)
    elif isinstance(expr, ast.IsNull):
        yield from walk_expression(expr.expr)
    elif isinstance(expr, (ast.Extract,)):
        yield from walk_expression(expr.expr)
    elif isinstance(expr, ast.Substring):
        yield from walk_expression(expr.expr)
        yield from walk_expression(expr.start)
        yield from walk_expression(expr.length)


# ---------------------------------------------------------------------------
# Statement-level walks used by the cluster planner
# ---------------------------------------------------------------------------


def walk_selects(select: ast.Select) -> Iterator[ast.Select]:
    """Yield a SELECT and every sub-query nested anywhere inside it."""
    yield select
    for item in select.from_items:
        yield from _walk_from_selects(item)
    for expr in iter_select_expressions(select):
        for node in walk_expression(expr):
            if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
                yield from walk_selects(node.query)


def _walk_from_selects(item: ast.FromItem) -> Iterator[ast.Select]:
    if isinstance(item, ast.SubqueryRef):
        yield from walk_selects(item.query)
    elif isinstance(item, ast.Join):
        yield from _walk_from_selects(item.left)
        yield from _walk_from_selects(item.right)


def iter_select_expressions(select: ast.Select) -> Iterator[ast.Expression]:
    """Yield every top-level expression of one SELECT (not of its FROM items)."""
    for item in select.items:
        yield item.expr
    for conjunct in _join_conditions(select.from_items):
        yield conjunct
    if select.where is not None:
        yield select.where
    for expr in select.group_by:
        yield expr
    if select.having is not None:
        yield select.having
    for order in select.order_by:
        yield order.expr


def _join_conditions(from_items: list[ast.FromItem]) -> Iterator[ast.Expression]:
    for item in from_items:
        if isinstance(item, ast.Join):
            if item.condition is not None:
                yield item.condition
            yield from _join_conditions([item.left, item.right])


def referenced_table_names(statement: Union[ast.Select, ast.Statement]) -> set[str]:
    """Lower-cased names of every base table / view a statement references.

    For DML this includes tables referenced by sub-queries in the ``WHERE``
    clause and (for ``UPDATE``) in assignment values — the cluster layer
    routes on the full reference set, not just the target table.
    """
    names: set[str] = set()
    if isinstance(statement, ast.Select):
        for select in walk_selects(statement):
            for item in select.from_items:
                _collect_table_names(item, names)
    elif isinstance(statement, (ast.Insert, ast.Update, ast.Delete)):
        names.add(statement.table.lower())
        if isinstance(statement, ast.Insert) and statement.query is not None:
            names |= referenced_table_names(statement.query)
        expressions: list[Optional[ast.Expression]] = []
        if isinstance(statement, (ast.Update, ast.Delete)):
            expressions.append(statement.where)
        if isinstance(statement, ast.Update):
            expressions.extend(assignment.value for assignment in statement.assignments)
        for expr in expressions:
            for node in walk_expression(expr):
                if isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
                    names |= referenced_table_names(node.query)
    return names


def _collect_table_names(item: ast.FromItem, names: set[str]) -> None:
    if isinstance(item, ast.TableRef):
        names.add(item.name.lower())
    elif isinstance(item, ast.Join):
        _collect_table_names(item.left, names)
        _collect_table_names(item.right, names)
    # SubqueryRef tables are collected by walk_selects


def count_nodes(node: Optional[ast.Node]) -> int:
    """Total AST nodes in a statement or expression tree (sub-queries included).

    The size metric behind the compiler's per-pass instrumentation
    (:mod:`repro.compile`): every SELECT, FROM item, select/order item and
    expression node counts as one.
    """
    if node is None:
        return 0
    if isinstance(node, ast.Select):
        total = 1
        for item in node.from_items:
            total += _count_from_item_nodes(item)
        for select_item in node.items:
            total += 1 + count_nodes(select_item.expr)
        total += count_nodes(node.where)
        for expr in node.group_by:
            total += count_nodes(expr)
        total += count_nodes(node.having)
        for order in node.order_by:
            total += 1 + count_nodes(order.expr)
        return total
    total = 0
    for sub in walk_expression(node):  # type: ignore[arg-type]
        total += 1
        if isinstance(sub, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
            total += count_nodes(sub.query)
    return total


def _count_from_item_nodes(item: ast.FromItem) -> int:
    if isinstance(item, ast.SubqueryRef):
        return 1 + count_nodes(item.query)
    if isinstance(item, ast.Join):
        return (
            1
            + _count_from_item_nodes(item.left)
            + _count_from_item_nodes(item.right)
            + count_nodes(item.condition)
        )
    return 1


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
    """A non-aggregate query split for scatter-gather execution.

    The per-shard query keeps the original SELECT list (plus hidden trailing
    sort-key columns when ``ORDER BY`` references an expression that is not
    in the SELECT list); the coordinator concatenates the shard streams,
    re-sorts on ``sort_columns``, deduplicates when ``distinct`` and applies
    ``limit``, then strips the hidden columns down to ``visible_width``.
    """

    shard_query: ast.Select
    visible_width: int
    sort_columns: tuple[tuple[int, bool], ...]  # (row position, descending)
    limit: Optional[int]
    distinct: bool


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
    """Split a non-aggregate SELECT into a per-shard stream + merge ordering.

    Raises :class:`SplitError` for aggregate/grouped queries and for DISTINCT
    queries whose ORDER BY is not part of the SELECT list (a hidden sort
    column would change the DISTINCT row identity).
    """
    if select.group_by or select_aggregate_calls(select):
        raise SplitError("row-stream split needs a non-aggregate query")
    shard_query = clone_select(select)
    shard_query.order_by = []
    shard_query.limit = None

    visible_width = len(select.items)
    sort_columns: list[tuple[int, bool]] = []
    alias_positions = {
        item.alias.lower(): position
        for position, item in enumerate(select.items)
        if item.alias is not None
    }
    item_positions = {
        ast.Node.to_sql(item.expr): position for position, item in enumerate(select.items)
    }
    for order in select.order_by:
        position = _order_key_position(order.expr, alias_positions, item_positions)
        if position is None:
            if select.distinct:
                raise SplitError(
                    "DISTINCT with an ORDER BY key outside the SELECT list"
                )
            position = len(shard_query.items)
            shard_query.items.append(ast.SelectItem(expr=order.expr, alias=None))
        sort_columns.append((position, order.descending))
    return RowStreamSplit(
        shard_query=shard_query,
        visible_width=visible_width,
        sort_columns=tuple(sort_columns),
        limit=select.limit,
        distinct=select.distinct,
    )


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
