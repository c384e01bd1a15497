"""Conversion function inlining (§4.2.3).

The paper inlines SQL-bodied conversion UDFs into the rewritten query (as a
join with the meta tables) so that the DBMS evaluates plain expressions
instead of calling a UDF per record.  In this reproduction a conversion pair
carries *inline builders* that produce the equivalent plain expression; for
the currency pair the UDF call becomes a multiplication with a per-tenant
rate obtained through a cheap immutable look-up function, for the phone pair
it becomes SUBSTRING/CONCAT over the tenant's prefix — the same per-record
cost profile as the paper's join-based inlining (an O(1) look-up plus scalar
arithmetic per record).
"""

from __future__ import annotations

from typing import Optional

from ...sql import ast
from ...sql.transform import transform_expression, transform_select
from ..conversion import ConversionRegistry
from ..rewrite.context import RewriteContext


class InliningOptimizer:
    """Replaces calls to conversion UDFs with their inline expression form."""

    #: the compiler pass this optimizer is (``PassRecord.name``)
    name = "inlining"
    description = "replace conversion UDF calls with their inline expression form"

    def __init__(self, context: RewriteContext) -> None:
        self.registry: ConversionRegistry = context.conversions
        #: conversion calls inlined across one apply() (compiler instrumentation)
        self.fired = 0

    def apply(self, query: ast.Select) -> ast.Select:
        return transform_select(query, self._inline)

    def _inline(self, node: ast.Expression) -> Optional[ast.Expression]:
        """The inline form of a conversion-pair call (its arguments inlined
        first), else ``None``: the transform descends into every other node,
        sub-queries included."""
        if not isinstance(node, ast.FunctionCall) or len(node.args) != 2:
            return None
        pair = self.registry.by_function(node.name)
        if pair is None or not pair.supports_inlining:
            return None
        value, ttid = (transform_expression(arg, self._inline, True) for arg in node.args)
        self.fired += 1
        if node.name.lower() == pair.to_universal.lower():
            return pair.inline_to(value, ttid)
        return pair.inline_from(value, ttid)
