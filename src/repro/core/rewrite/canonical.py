"""The canonical MTSQL→SQL rewrite algorithm (§3.1, Algorithms 1 and 2).

The rewriter walks the query top-down and maintains the paper's invariant for
every (sub-)query: *its result is filtered according to D' and presented in
the format required by the client C*.  Concretely it

* wraps every reference to a *convertible* attribute in
  ``fromUniversal(toUniversal(attr, <ttid column>), C)``,
* adds ``a.ttid = b.ttid`` predicates to comparisons that join
  *tenant-specific* attributes of different tables,
* rejects comparisons that mix tenant-specific attributes with comparable or
  convertible ones (§2.4.2),
* adds a D-filter ``t.ttid IN (d1, ..., dn)`` for every tenant-specific base
  table in the FROM clause,
* hides the ttid columns when expanding ``*`` and recursively rewrites every
  sub-query (FROM derived tables, IN/EXISTS/scalar sub-queries).

The trivial semantic optimizations of §4.1 are expressed as
:class:`~repro.core.rewrite.context.RewriteOptions` flags that switch off the
corresponding part of the rewrite when C and D allow it.
"""

from __future__ import annotations

import copy
from typing import Optional

from ...errors import RewriteError
from ...sql import ast
from ...sql.transform import transform_expression
from ..conversion import ConversionPair
from .bindings import BindingInfo, QueryBindings, ResolvedAttribute
from .context import RewriteContext

_COMPARISON_OPS = {"=", "<>", "<", "<=", ">", ">="}


class CanonicalRewriter:
    """Rewrites MTSQL queries into plain SQL for a fixed (C, D', options)."""

    def __init__(self, context: RewriteContext) -> None:
        self.context = context

    # -- public API ------------------------------------------------------------

    def rewrite_query(self, query: ast.Select, top_level: bool = True) -> ast.Select:
        """Algorithm 1: rewrite each clause of the query, recursing into sub-queries."""
        bindings = QueryBindings(self.context.schema, query.from_items)
        rewritten = copy.copy(query)
        rewritten.from_items = self._rewrite_from(query.from_items, bindings)
        rewritten.items = self._rewrite_select_items(query, bindings, top_level)
        rewritten.where = self._rewrite_where(query, bindings)
        rewritten.group_by = [
            self._rewrite_expression(expr, bindings) for expr in query.group_by
        ]
        rewritten.having = (
            self._rewrite_expression(query.having, bindings)
            if query.having is not None
            else None
        )
        # ORDER BY clauses need not be rewritten (§3.1): they reference output
        # aliases, which already carry the converted values.
        rewritten.order_by = [
            ast.OrderItem(expr=order.expr, descending=order.descending)
            for order in query.order_by
        ]
        return rewritten

    def rewrite_scope_query(self, scope_query: ast.Select) -> ast.Select:
        """Listing 12: turn a complex scope into a SELECT of the owners' ttids.

        The FROM and WHERE clauses are rewritten like a sub-query; the SELECT
        clause projects the (distinct) ttids of the tenant-specific tables.
        """
        bindings = QueryBindings(self.context.schema, scope_query.from_items)
        tenant_bindings = bindings.tenant_specific_bindings()
        if not tenant_bindings:
            raise RewriteError("complex scope must reference a tenant-specific table")
        projected = tenant_bindings[0].ttid_expression()
        rewritten = copy.copy(scope_query)
        rewritten.items = [ast.SelectItem(expr=projected, alias="ttid")]
        rewritten.distinct = True
        rewritten.from_items = self._rewrite_from(scope_query.from_items, bindings)
        # the scope query must see every tenant's rows: no D-filter, but the
        # predicates are still evaluated in C's format
        rewritten.where = self._rewrite_where(
            scope_query, bindings, add_dataset_filters=False
        )
        rewritten.group_by = list(scope_query.group_by)
        rewritten.having = scope_query.having
        rewritten.order_by = []
        return rewritten

    # -- FROM (Algorithm 2) ------------------------------------------------------

    def _rewrite_from(
        self, from_items: list[ast.FromItem], bindings: QueryBindings
    ) -> list[ast.FromItem]:
        return [self._rewrite_from_item(item, bindings) for item in from_items]

    def _rewrite_from_item(self, item: ast.FromItem, bindings: QueryBindings) -> ast.FromItem:
        if isinstance(item, ast.TableRef):
            return ast.TableRef(name=item.name, alias=item.alias)
        if isinstance(item, ast.SubqueryRef):
            return ast.SubqueryRef(
                query=self.rewrite_query(item.query, top_level=False), alias=item.alias
            )
        if isinstance(item, ast.Join):
            condition = item.condition
            new_condition = None
            if condition is not None:
                rewritten = self._rewrite_expression(condition, bindings)
                extra = self._ttid_join_predicates(condition, bindings)
                new_condition = ast.and_(rewritten, *extra)
            if item.join_type is ast.JoinType.LEFT and self.context.options.add_dataset_filters:
                # the D-filter for the nullable side must live in the ON clause;
                # putting it in the WHERE would turn the outer join into an
                # inner join (NULL-extended rows would be filtered out)
                right_filters = [
                    self._dataset_filter_for(binding)
                    for binding in self._tenant_specific_in_item(item.right, bindings)
                ]
                new_condition = ast.and_(new_condition, *right_filters)
            return ast.Join(
                left=self._rewrite_from_item(item.left, bindings),
                right=self._rewrite_from_item(item.right, bindings),
                join_type=item.join_type,
                condition=new_condition,
                alias=item.alias,
            )
        raise RewriteError(f"unsupported FROM item {type(item).__name__}")

    def _tenant_specific_in_item(
        self, item: ast.FromItem, bindings: QueryBindings
    ) -> list[BindingInfo]:
        """Tenant-specific base-table bindings appearing in a FROM subtree."""
        if isinstance(item, ast.TableRef):
            binding = bindings.get(item.alias or item.name)
            if binding is not None and binding.is_tenant_specific:
                return [binding]
            return []
        if isinstance(item, ast.Join):
            return self._tenant_specific_in_item(item.left, bindings) + self._tenant_specific_in_item(
                item.right, bindings
            )
        return []

    def _protected_bindings(self, from_items: list[ast.FromItem], bindings: QueryBindings) -> set[str]:
        """Bindings whose D-filter is emitted inside a LEFT JOIN's ON clause."""
        protected: set[str] = set()

        def visit(item: ast.FromItem) -> None:
            if isinstance(item, ast.Join):
                if item.join_type is ast.JoinType.LEFT:
                    for binding in self._tenant_specific_in_item(item.right, bindings):
                        protected.add(binding.name)
                visit(item.left)
                visit(item.right)

        for item in from_items:
            visit(item)
        return protected

    # -- SELECT --------------------------------------------------------------------

    def _rewrite_select_items(
        self, query: ast.Select, bindings: QueryBindings, top_level: bool
    ) -> list[ast.SelectItem]:
        expanded = self._expand_stars(query.items, bindings)
        items: list[ast.SelectItem] = []
        for item in expanded:
            rewritten_expr = self._rewrite_expression(item.expr, bindings)
            alias = item.alias
            if alias is None and rewritten_expr is not item.expr and isinstance(item.expr, ast.Column):
                # keep the original attribute name visible to super-queries /
                # the client (Listing 10, line 3)
                alias = item.expr.name
            items.append(ast.SelectItem(expr=rewritten_expr, alias=alias))
        return items

    def _expand_stars(
        self, items: list[ast.SelectItem], bindings: QueryBindings
    ) -> list[ast.SelectItem]:
        expanded: list[ast.SelectItem] = []
        for item in items:
            if not isinstance(item.expr, ast.Star):
                expanded.append(item)
                continue
            targets = bindings.bindings()
            if item.expr.table is not None:
                binding = bindings.get(item.expr.table)
                if binding is None:
                    raise RewriteError(f"unknown binding {item.expr.table!r} in star expansion")
                targets = [binding]
            for binding in targets:
                expanded.extend(self._star_columns(binding))
        return expanded

    def _star_columns(self, binding: BindingInfo) -> list[ast.SelectItem]:
        # ttid columns stay invisible to the client (Listing 10, line 9)
        items: list[ast.SelectItem] = []
        if binding.table is not None:
            for attribute in binding.table.attributes.values():
                items.append(
                    ast.SelectItem(
                        expr=ast.Column(name=attribute.name, table=binding.name), alias=None
                    )
                )
        else:
            for column in binding.columns:
                items.append(
                    ast.SelectItem(expr=ast.Column(name=column, table=binding.name), alias=None)
                )
        return items

    # -- WHERE -----------------------------------------------------------------------

    def _rewrite_where(
        self,
        query: ast.Select,
        bindings: QueryBindings,
        add_dataset_filters: Optional[bool] = None,
    ) -> Optional[ast.Expression]:
        if add_dataset_filters is None:
            add_dataset_filters = self.context.options.add_dataset_filters
        conjuncts = [
            self._rewrite_expression(conjunct, bindings)
            for conjunct in ast.split_conjuncts(query.where)
        ]
        extra = self._ttid_join_predicates(query.where, bindings)
        dataset_filters = []
        if add_dataset_filters:
            protected = self._protected_bindings(query.from_items, bindings)
            dataset_filters = self._dataset_filters(bindings, exclude=protected)
        return ast.and_(*(conjuncts + extra + dataset_filters))

    def _dataset_filters(
        self, bindings: QueryBindings, exclude: Optional[set[str]] = None
    ) -> list[ast.Expression]:
        filters: list[ast.Expression] = []
        for binding in bindings.tenant_specific_bindings():
            if exclude and binding.name in exclude:
                continue
            filters.append(self._dataset_filter_for(binding))
        return filters

    def _dataset_filter_for(self, binding: BindingInfo) -> ast.Expression:
        ttid = binding.ttid_expression()
        items = tuple(ast.Literal(int(ttid_value)) for ttid_value in self.context.dataset)
        return ast.InList(expr=ttid, items=items)

    def _ttid_join_predicates(
        self, predicate: Optional[ast.Expression], bindings: QueryBindings
    ) -> list[ast.Expression]:
        """Extra ``a.ttid = b.ttid`` predicates for tenant-specific comparisons."""
        if predicate is None or not self.context.options.add_ttid_join_predicates:
            # the comparability validity check still applies even when the
            # predicates themselves are not needed (|D| = 1)
            if predicate is not None:
                for comparison in self._comparisons(predicate):
                    self._validate_comparison(comparison, bindings)
            return []
        added: list[ast.Expression] = []
        seen: set[tuple[str, str]] = set()
        for comparison in self._comparisons(predicate):
            tenant_bindings = self._validate_comparison(comparison, bindings)
            if len(tenant_bindings) < 2:
                continue
            ordered = sorted(tenant_bindings)
            for first, second in zip(ordered, ordered[1:]):
                if (first, second) in seen:
                    continue
                seen.add((first, second))
                left_binding = bindings.get(first)
                right_binding = bindings.get(second)
                added.append(
                    ast.BinaryOp(
                        "=",
                        left_binding.ttid_expression(),
                        right_binding.ttid_expression(),
                    )
                )
        return added

    def _comparisons(self, predicate: ast.Expression) -> list[ast.Expression]:
        """All comparison-shaped sub-expressions of a predicate."""
        comparisons: list[ast.Expression] = []

        def visit(expr: Optional[ast.Expression]) -> None:
            if expr is None:
                return
            if isinstance(expr, ast.BinaryOp):
                if expr.op in _COMPARISON_OPS:
                    comparisons.append(expr)
                    return
                visit(expr.left)
                visit(expr.right)
            elif isinstance(expr, ast.UnaryOp):
                visit(expr.operand)
            elif isinstance(expr, (ast.InList, ast.Between, ast.Like)):
                comparisons.append(expr)
            elif isinstance(expr, ast.InSubquery):
                comparisons.append(expr)

        for conjunct in ast.split_conjuncts(predicate):
            visit(conjunct)
        return comparisons

    def _validate_comparison(
        self, comparison: ast.Expression, bindings: QueryBindings
    ) -> set[str]:
        """§2.4.2 validity check; returns the tenant-specific bindings involved.

        Only base-table attributes participate in the check: constants and
        derived-table columns (which, by the rewrite invariant, are already
        D'-filtered and in client format) may be compared with anything.
        """
        from .bindings import BindingKind

        resolved: list[ResolvedAttribute] = []
        for column in _comparison_columns(comparison):
            attribute = bindings.resolve(column)
            if attribute is not None and attribute.binding.kind is BindingKind.BASE_TABLE:
                resolved.append(attribute)
        tenant_specific = [attr for attr in resolved if attr.is_tenant_specific]
        other = [attr for attr in resolved if not attr.is_tenant_specific]
        if tenant_specific and other:
            raise RewriteError(
                "cannot compare tenant-specific attribute "
                f"{tenant_specific[0].column.qualified!r} with "
                f"{other[0].column.qualified!r}"
            )
        return {attr.binding.name for attr in tenant_specific}

    # -- expression rewriting -----------------------------------------------------------

    def _rewrite_expression(
        self, expr: Optional[ast.Expression], bindings: QueryBindings
    ) -> Optional[ast.Expression]:
        """Wrap convertible attributes in conversion calls; recurse into sub-queries."""
        if expr is None:
            return None

        def replacer(node: ast.Expression) -> Optional[ast.Expression]:
            if isinstance(node, ast.Column):
                return self._wrap_column(node, bindings)
            if isinstance(node, ast.ScalarSubquery):
                return ast.ScalarSubquery(query=self.rewrite_query(node.query, top_level=False))
            if isinstance(node, ast.InSubquery):
                return ast.InSubquery(
                    expr=self._rewrite_expression(node.expr, bindings),
                    query=self.rewrite_query(node.query, top_level=False),
                    negated=node.negated,
                )
            if isinstance(node, ast.Exists):
                return ast.Exists(
                    query=self.rewrite_query(node.query, top_level=False), negated=node.negated
                )
            return None

        return transform_expression(expr, replacer)

    def _wrap_column(self, column: ast.Column, bindings: QueryBindings) -> Optional[ast.Expression]:
        if not self.context.options.wrap_conversions:
            return None
        resolved = bindings.resolve(column)
        if resolved is None or not resolved.is_convertible:
            return None
        pair = self.context.conversions.resolve(resolved.conversion)
        return self.wrap_value(column, resolved.binding.ttid_expression(), pair)

    def wrap_value(
        self, value: ast.Expression, ttid: ast.Expression, pair: ConversionPair
    ) -> ast.Expression:
        """``fromUniversal(toUniversal(value, ttid), C)``."""
        to_universal = ast.func(pair.to_universal, value, ttid)
        return ast.func(pair.from_universal, to_universal, ast.Literal(self.context.client))


def _comparison_columns(comparison: ast.Expression) -> list[ast.Column]:
    """Column references taking part in a comparison (excluding sub-queries)."""
    from ...engine.expressions import referenced_columns

    if isinstance(comparison, ast.InSubquery):
        return referenced_columns(comparison.expr)
    return referenced_columns(comparison)
