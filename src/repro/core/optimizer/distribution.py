"""Aggregation distribution (§4.2.2, Listing 16).

Aggregating a converted attribute canonically costs two conversion calls per
record.  When the aggregation function distributes over the conversion pair
(Table 2), the query can instead

1. aggregate the *raw* values per tenant (no conversions),
2. convert each per-tenant partial result to universal format (one call per
   tenant), and
3. combine the partials and convert the final result to client format (one
   more call),

reducing the number of conversion calls from ``2N`` to ``T + 1``.

The pass restructures a grouped query ``SELECT g, AGG(e) ... GROUP BY g`` into

``SELECT g, combine(p) FROM (SELECT g, ttid, partial(e') AS p ... GROUP BY g,
ttid) GROUP BY g``

and additionally *hoists* ``fromUniversal(x, C)`` wrappers (left behind by
client presentation push-up) out of distributive aggregates.
"""

from __future__ import annotations

import copy
from typing import Optional

from ...sql import ast
from ...sql.printer import to_sql
from ...sql.transform import select_aggregate_calls, transform_expression
from ..conversion import ConversionPair, distributes_over
from ..rewrite.context import RewriteContext
from .patterns import FromWrap, FullWrap, find_wraps, on_multiplicative_path


class _AggregateInfo:
    """Analysis of one unique aggregate call occurring in the query."""

    def __init__(self, index: int, call: ast.FunctionCall, registry) -> None:
        self.index = index
        self.call = call
        self.name = call.name.upper()
        self.text = to_sql(call)
        self.argument = call.args[0] if call.args else ast.Star()
        self.full_wraps: list[FullWrap] = []
        self.from_wraps: list[FromWrap] = []
        if not isinstance(self.argument, ast.Star):
            self.full_wraps, self.from_wraps = find_wraps(self.argument, registry)

    @property
    def wraps(self) -> list:
        return self.full_wraps + self.from_wraps

    @property
    def pair(self) -> Optional[ConversionPair]:
        pairs = {wrap.pair.name: wrap.pair for wrap in self.wraps}
        if len(pairs) == 1:
            return next(iter(pairs.values()))
        return None

    def stripped_argument(self) -> ast.Expression:
        """The aggregate argument with every conversion wrap removed."""
        nodes = {id(wrap.node): wrap for wrap in self.wraps}

        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            wrap = nodes.get(id(node))
            if wrap is None:
                return None
            if isinstance(wrap, FullWrap):
                return wrap.value
            return wrap.value

        return transform_expression(self.argument, replacer)


class AggregationDistributionOptimizer:
    """Applies aggregation distribution to every (sub-)query where it is valid."""

    #: the compiler pass this optimizer is (``PassRecord.name``)
    name = "distribution"
    description = "aggregate raw values per tenant, convert the partials (2N → T+1 calls)"

    def __init__(self, context: RewriteContext) -> None:
        self.context = context
        self.registry = context.conversions
        self.client = context.client
        #: aggregates restructured/hoisted across one apply() (instrumentation)
        self.fired = 0

    # -- recursion -----------------------------------------------------------

    def apply(self, query: ast.Select) -> ast.Select:
        query = copy.copy(query)
        query.from_items = [self._apply_from_item(item) for item in query.from_items]
        query = self._apply_expression_subqueries(query)
        return self._distribute(query)

    def _apply_from_item(self, item: ast.FromItem) -> ast.FromItem:
        if isinstance(item, ast.SubqueryRef):
            return ast.SubqueryRef(query=self.apply(item.query), alias=item.alias)
        if isinstance(item, ast.Join):
            return ast.Join(
                left=self._apply_from_item(item.left),
                right=self._apply_from_item(item.right),
                join_type=item.join_type,
                condition=item.condition,
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

    # -- analysis ---------------------------------------------------------------

    def _distribute(self, query: ast.Select) -> ast.Select:
        if query.distinct:
            return query
        collected = select_aggregate_calls(query)
        if not collected:
            return query
        if any(call.distinct for call in collected):
            return query

        unique: dict[str, ast.FunctionCall] = {}
        for call in collected:
            unique.setdefault(to_sql(call), call)
        infos = [
            _AggregateInfo(index, call, self.registry)
            for index, (_, call) in enumerate(unique.items())
        ]

        wrapped_infos = [info for info in infos if info.wraps]
        if not wrapped_infos:
            return query
        for info in wrapped_infos:
            pair = info.pair
            if pair is None:
                return query
            if not distributes_over(info.name, pair):
                return query
            if info.name != "COUNT":
                # stripping the conversion out of the surrounding arithmetic is
                # only valid for constant-factor pairs, for a single conversion
                # per aggregate argument, and only when that conversion sits on
                # a purely multiplicative path inside the argument
                if not pair.constant_factor:
                    return query
                if len(info.wraps) != 1:
                    return query
                if not on_multiplicative_path(info.argument, info.wraps[0].node):
                    return query

        full_ttids = {
            to_sql(wrap.ttid) for info in wrapped_infos for wrap in info.full_wraps
        }
        if len(full_ttids) > 1:
            return query
        if full_ttids:
            ttid_expr = next(
                wrap.ttid for info in wrapped_infos for wrap in info.full_wraps
            )
            self.fired += len(infos)
            return self._restructure(query, infos, ttid_expr)
        return self._hoist(query, wrapped_infos)

    # -- hoisting (no per-tenant partials needed) ----------------------------------

    def _hoist(self, query: ast.Select, wrapped_infos: list[_AggregateInfo]) -> ast.Select:
        mapping: dict[str, ast.Expression] = {}
        for info in wrapped_infos:
            if info.name == "COUNT":
                continue
            if len(info.from_wraps) != 1 or info.full_wraps:
                continue
            pair = info.pair
            stripped = info.stripped_argument()
            hoisted = ast.func(
                pair.from_universal,
                ast.FunctionCall(name=info.call.name, args=(stripped,)),
                ast.Literal(self.client),
            )
            mapping[info.text] = hoisted
        if not mapping:
            return query
        self.fired += len(mapping)
        return self._replace_by_text(query, mapping)

    # -- full restructuring ----------------------------------------------------------

    def _restructure(
        self, query: ast.Select, infos: list[_AggregateInfo], ttid_expr: ast.Expression
    ) -> ast.Select:
        inner = ast.Select()
        inner.from_items = query.from_items
        inner.where = query.where
        inner.group_by = list(query.group_by) + [ttid_expr]
        inner.items = []
        for position, group_expr in enumerate(query.group_by):
            inner.items.append(ast.SelectItem(expr=group_expr, alias=f"mt_g{position}"))
        inner.items.append(ast.SelectItem(expr=ttid_expr, alias="mt_ttid"))

        combined: dict[str, ast.Expression] = {}
        for info in infos:
            partial_items, combined_expr = self._partials_for(info, ttid_expr)
            inner.items.extend(partial_items)
            combined[info.text] = combined_expr

        outer = ast.Select()
        outer.from_items = [ast.SubqueryRef(query=inner, alias="mt_part")]
        outer.group_by = [
            ast.Column(name=f"mt_g{position}") for position in range(len(query.group_by))
        ]
        mapping = dict(combined)
        for position, group_expr in enumerate(query.group_by):
            mapping.setdefault(to_sql(group_expr), ast.Column(name=f"mt_g{position}"))

        outer.items = []
        for item in query.items:
            new_expr = self._replace_expression(item.expr, mapping)
            alias = item.alias
            if alias is None and isinstance(item.expr, ast.Column):
                alias = item.expr.name
            outer.items.append(ast.SelectItem(expr=new_expr, alias=alias))
        outer.having = (
            self._replace_expression(query.having, mapping) if query.having is not None else None
        )
        outer.order_by = [
            ast.OrderItem(
                expr=self._replace_expression(order.expr, mapping), descending=order.descending
            )
            for order in query.order_by
        ]
        outer.distinct = query.distinct
        outer.limit = query.limit
        return outer

    def _partials_for(
        self, info: _AggregateInfo, ttid_expr: ast.Expression
    ) -> tuple[list[ast.SelectItem], ast.Expression]:
        pair = info.pair if info.wraps else None
        client = ast.Literal(self.client)
        stripped = info.stripped_argument() if info.wraps else info.argument
        partial_name = f"mt_p{info.index}"

        def to_universal(expr: ast.Expression) -> ast.Expression:
            if pair is None or not info.full_wraps:
                return expr
            return ast.func(pair.to_universal, expr, ttid_expr)

        def from_universal(expr: ast.Expression) -> ast.Expression:
            if pair is None:
                return expr
            return ast.func(pair.from_universal, expr, client)

        if info.name == "COUNT":
            partial = ast.FunctionCall(name="COUNT", args=info.call.args)
            items = [ast.SelectItem(expr=partial, alias=partial_name)]
            # COALESCE keeps COUNT's empty-input semantics: a COUNT over zero
            # rows is 0, but a SUM over zero per-tenant partials would be NULL
            combined = ast.func(
                "COALESCE",
                ast.FunctionCall(name="SUM", args=(ast.Column(name=partial_name),)),
                ast.Literal(0),
            )
            return items, combined
        if info.name in ("SUM", "MIN", "MAX"):
            partial = to_universal(ast.FunctionCall(name=info.name, args=(stripped,)))
            items = [ast.SelectItem(expr=partial, alias=partial_name)]
            outer_name = "SUM" if info.name == "SUM" else info.name
            combined = ast.FunctionCall(name=outer_name, args=(ast.Column(name=partial_name),))
            if info.wraps:
                combined = from_universal(combined)
            return items, combined
        if info.name == "AVG":
            partial_sum = to_universal(ast.FunctionCall(name="SUM", args=(stripped,)))
            partial_count = ast.FunctionCall(name="COUNT", args=(stripped,))
            items = [
                ast.SelectItem(expr=partial_sum, alias=f"{partial_name}_sum"),
                ast.SelectItem(expr=partial_count, alias=f"{partial_name}_cnt"),
            ]
            combined = ast.BinaryOp(
                "/",
                ast.FunctionCall(name="SUM", args=(ast.Column(name=f"{partial_name}_sum"),)),
                ast.FunctionCall(name="SUM", args=(ast.Column(name=f"{partial_name}_cnt"),)),
            )
            if info.wraps:
                combined = from_universal(combined)
            return items, combined
        # unreachable: select_aggregate_calls only yields the five standard aggregates
        partial = ast.FunctionCall(name=info.name, args=(stripped,))
        return [ast.SelectItem(expr=partial, alias=partial_name)], ast.Column(name=partial_name)

    # -- text-based subtree replacement -----------------------------------------------

    def _replace_by_text(self, query: ast.Select, mapping: dict[str, ast.Expression]) -> ast.Select:
        query = copy.copy(query)
        query.items = [
            ast.SelectItem(expr=self._replace_expression(item.expr, mapping), alias=item.alias)
            for item in query.items
        ]
        query.having = (
            self._replace_expression(query.having, mapping) if query.having is not None else None
        )
        query.order_by = [
            ast.OrderItem(
                expr=self._replace_expression(order.expr, mapping), descending=order.descending
            )
            for order in query.order_by
        ]
        return query

    @staticmethod
    def _replace_expression(
        expr: Optional[ast.Expression], mapping: dict[str, ast.Expression]
    ) -> Optional[ast.Expression]:
        if expr is None:
            return None

        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            if isinstance(node, ast.SUBQUERY_NODES):
                return node
            replacement = mapping.get(to_sql(node))
            if replacement is not None:
                return replacement
            return None

        return transform_expression(expr, replacer)
