"""Client presentation push-up and conversion push-up (§4.2.1).

Both optimizations postpone conversions so that fewer values need converting:

* **conversion push-up** — in a comparison between a converted attribute and a
  client-format constant (or uncorrelated scalar sub-query), convert the
  *constant* into the owner's format instead of converting the attribute of
  every row.  The converted constant depends only on ``(constant, ttid)``, so
  a back-end that caches immutable UDF results executes it once per tenant.
* **client presentation push-up** — when two converted attributes are
  compared, compare them in universal format (dropping the ``fromUniversal``
  calls); when a sub-query's output feeds an outer query, defer the
  ``fromUniversal`` call to the outer query so the sub-query only converts to
  universal format.

Equality comparisons are valid for every conversion pair (Corollary 1);
inequalities additionally require the pair to be order preserving.
"""

from __future__ import annotations

import copy
from typing import Optional

from ...sql import ast
from ...sql.transform import transform_expression
from ..rewrite.context import RewriteContext
from .patterns import (
    FullWrap,
    contains_conversion_call,
    find_wraps,
    match_full_wrap,
    on_multiplicative_path,
)

_EQUALITY_OPS = {"=", "<>"}
_ORDER_OPS = {"<", "<=", ">", ">="}


class PushUpOptimizer:
    """Applies the §4.2.1 push-up transformations to a rewritten query."""

    #: the compiler pass this optimizer is (``PassRecord.name``)
    name = "pushup"
    description = "convert constants instead of attributes; compare in universal format"

    def __init__(self, context: RewriteContext) -> None:
        self.context = context
        self.registry = context.conversions
        self.client = context.client
        #: rewrite rules fired across one apply() (compiler instrumentation)
        self.fired = 0

    # -- entry point ---------------------------------------------------------

    def apply(self, query: ast.Select) -> ast.Select:
        query = copy.copy(query)
        query.from_items = [self._apply_from_item(item) for item in query.from_items]
        query = self._apply_expression_subqueries(query)
        query = self._derived_table_pushup(query)
        query.where = self._pushup_predicate(query.where)
        query.having = self._pushup_predicate(query.having)
        return query

    def _apply_from_item(self, item: ast.FromItem) -> ast.FromItem:
        if isinstance(item, ast.SubqueryRef):
            return ast.SubqueryRef(query=self.apply(item.query), alias=item.alias)
        if isinstance(item, ast.Join):
            return ast.Join(
                left=self._apply_from_item(item.left),
                right=self._apply_from_item(item.right),
                join_type=item.join_type,
                condition=self._pushup_predicate(item.condition),
                alias=item.alias,
            )
        return item

    def _apply_expression_subqueries(self, query: ast.Select) -> ast.Select:
        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            if isinstance(node, ast.ScalarSubquery):
                return ast.ScalarSubquery(query=self.apply(node.query))
            if isinstance(node, ast.InSubquery):
                return ast.InSubquery(
                    expr=transform_expression(node.expr, replacer),
                    query=self.apply(node.query),
                    negated=node.negated,
                )
            if isinstance(node, ast.Exists):
                return ast.Exists(query=self.apply(node.query), negated=node.negated)
            return None

        query.items = [
            ast.SelectItem(expr=transform_expression(item.expr, replacer), alias=item.alias)
            for item in query.items
        ]
        query.where = transform_expression(query.where, replacer)
        query.having = transform_expression(query.having, replacer)
        return query

    # -- comparison push-ups -----------------------------------------------------

    def _pushup_predicate(self, predicate: Optional[ast.Expression]) -> Optional[ast.Expression]:
        if predicate is None:
            return None

        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            replacement: Optional[ast.Expression] = None
            if isinstance(node, ast.BinaryOp) and node.op in _EQUALITY_OPS | _ORDER_OPS:
                replacement = self._pushup_comparison(node)
            elif isinstance(node, ast.Between):
                replacement = self._pushup_between(node)
            elif isinstance(node, ast.InList):
                replacement = self._pushup_in_list(node)
            if replacement is not None:
                self.fired += 1
            return replacement

        return transform_expression(predicate, replacer)

    def _pushup_comparison(self, node: ast.BinaryOp) -> Optional[ast.Expression]:
        left_wrap = match_full_wrap(node.left, self.registry)
        right_wrap = match_full_wrap(node.right, self.registry)
        order_needed = node.op in _ORDER_OPS

        if left_wrap is not None and right_wrap is not None and left_wrap.pair is right_wrap.pair:
            if order_needed and not left_wrap.pair.order_preserving:
                return None
            # client presentation push-up: compare in universal format
            return ast.BinaryOp(node.op, left_wrap.node.args[0], right_wrap.node.args[0])

        for wrap, other, flipped in (
            (left_wrap, node.right, False),
            (right_wrap, node.left, True),
        ):
            if wrap is None:
                continue
            if not self._is_client_constant(other):
                continue
            if order_needed and not wrap.pair.order_preserving:
                continue
            converted_constant = self._convert_constant(other, wrap)
            if flipped:
                return ast.BinaryOp(node.op, converted_constant, wrap.value)
            return ast.BinaryOp(node.op, wrap.value, converted_constant)
        return None

    def _pushup_between(self, node: ast.Between) -> Optional[ast.Expression]:
        wrap = match_full_wrap(node.expr, self.registry)
        if wrap is None or not wrap.pair.order_preserving:
            return None
        if not (self._is_client_constant(node.low) and self._is_client_constant(node.high)):
            return None
        return ast.Between(
            expr=wrap.value,
            low=self._convert_constant(node.low, wrap),
            high=self._convert_constant(node.high, wrap),
            negated=node.negated,
        )

    def _pushup_in_list(self, node: ast.InList) -> Optional[ast.Expression]:
        wrap = match_full_wrap(node.expr, self.registry)
        if wrap is None:
            return None
        if not all(self._is_client_constant(item) for item in node.items):
            return None
        return ast.InList(
            expr=wrap.value,
            items=tuple(self._convert_constant(item, wrap) for item in node.items),
            negated=node.negated,
        )

    def _convert_constant(self, constant: ast.Expression, wrap: FullWrap) -> ast.Expression:
        """Convert a client-format constant into the owner's format.

        Note: Listing 15 of the paper prints the argument order the other way
        round; converting *from* the client format *into* the owner's format
        is ``fromUniversal(toUniversal(const, C), ttid)``.
        """
        to_universal = ast.func(wrap.pair.to_universal, constant, ast.Literal(self.client))
        return ast.func(wrap.pair.from_universal, to_universal, wrap.ttid)

    def _is_client_constant(self, expr: ast.Expression) -> bool:
        """True for expressions that are constant per query and in client format."""
        from ...engine.expressions import referenced_columns

        if contains_conversion_call(expr, self.registry):
            return False
        if isinstance(expr, ast.ScalarSubquery):
            return True
        return not referenced_columns(expr)

    # -- derived-table client presentation push-up ----------------------------------

    def _derived_table_pushup(self, query: ast.Select) -> ast.Select:
        deferred: dict[str, object] = {}
        new_from: list[ast.FromItem] = []
        for item in query.from_items:
            if isinstance(item, ast.SubqueryRef):
                rewritten_item, item_deferred = self._defer_subquery_conversions(item)
                new_from.append(rewritten_item)
                deferred.update(item_deferred)
            else:
                new_from.append(item)
        if not deferred:
            return query
        query.from_items = new_from
        self.fired += len(deferred)

        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            if isinstance(node, ast.Column):
                pair = deferred.get(node.name.lower())
                if pair is not None:
                    return ast.func(pair.from_universal, node, ast.Literal(self.client))
            return None

        query.items = [
            ast.SelectItem(expr=transform_expression(item.expr, replacer), alias=item.alias)
            for item in query.items
        ]
        query.where = transform_expression(query.where, replacer)
        query.group_by = [transform_expression(expr, replacer) for expr in query.group_by]
        query.having = transform_expression(query.having, replacer)
        query.order_by = [
            ast.OrderItem(expr=transform_expression(order.expr, replacer), descending=order.descending)
            for order in query.order_by
        ]
        return query

    def _defer_subquery_conversions(
        self, item: ast.SubqueryRef
    ) -> tuple[ast.SubqueryRef, dict[str, object]]:
        """Leave the sub-query's output in universal format where possible."""
        inner = item.query
        deferred: dict[str, object] = {}
        new_items: list[ast.SelectItem] = []
        for select_item in inner.items:
            replacement = self._defer_item(select_item)
            if replacement is None:
                new_items.append(select_item)
            else:
                new_item, pair = replacement
                new_items.append(new_item)
                name = new_item.alias or (
                    new_item.expr.name if isinstance(new_item.expr, ast.Column) else None
                )
                if name is not None:
                    deferred[name.lower()] = pair
        if not deferred:
            return item, {}
        new_inner = copy.copy(inner)
        new_inner.items = new_items
        return ast.SubqueryRef(query=new_inner, alias=item.alias), deferred

    def _defer_item(self, select_item: ast.SelectItem):
        full_wraps, from_wraps = find_wraps(select_item.expr, self.registry)
        wraps = full_wraps + from_wraps
        if len(wraps) != 1:
            return None
        wrap = wraps[0]
        # Deferring the fromUniversal call past the surrounding arithmetic and
        # past outer comparisons/orderings is only valid for constant-factor
        # pairs and only when the conversion is a multiplicative factor of the
        # whole output expression.
        if not wrap.pair.constant_factor:
            return None
        if not on_multiplicative_path(select_item.expr, wrap.node):
            return None
        alias = select_item.alias
        if alias is None:
            return None
        inner_value = wrap.node.args[0]

        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            if node is wrap.node:
                return inner_value
            return None

        new_expr = transform_expression(select_item.expr, replacer)
        return ast.SelectItem(expr=new_expr, alias=alias), wrap.pair
