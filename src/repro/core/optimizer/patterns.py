"""Recognition of conversion-call patterns inside rewritten SQL expressions.

The optimization passes work on the output of the canonical rewriter, which
contains two shapes of conversion calls:

* a *full wrap* ``fromUniversal(toUniversal(X, <ttid expr>), C)`` — a value in
  some owner's format converted to the client's format,
* a *from wrap* ``fromUniversal(X, C)`` — a value already in universal format
  converted to the client's format (this shape appears after client
  presentation push-up deferred the conversion out of a sub-query).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ...sql import ast
from ...sql.transform import walk_expression
from ..conversion import ConversionPair, ConversionRegistry


@dataclass
class FullWrap:
    """``from(to(value, ttid), client)``."""

    pair: ConversionPair
    value: ast.Expression
    ttid: ast.Expression
    client: ast.Expression
    node: ast.FunctionCall


@dataclass
class FromWrap:
    """``from(value, client)`` where ``value`` is already universal."""

    pair: ConversionPair
    value: ast.Expression
    client: ast.Expression
    node: ast.FunctionCall


@dataclass
class ToWrap:
    """``to(value, ttid)`` — a value converted into universal format."""

    pair: ConversionPair
    value: ast.Expression
    ttid: ast.Expression
    node: ast.FunctionCall


def match_full_wrap(node: ast.Expression, registry: ConversionRegistry) -> Optional[FullWrap]:
    if not isinstance(node, ast.FunctionCall) or len(node.args) != 2:
        return None
    pair = registry.by_function(node.name)
    if pair is None or node.name.lower() != pair.from_universal.lower():
        return None
    inner = node.args[0]
    if not isinstance(inner, ast.FunctionCall) or len(inner.args) != 2:
        return None
    inner_pair = registry.by_function(inner.name)
    if inner_pair is None or inner_pair is not pair:
        return None
    if inner.name.lower() != pair.to_universal.lower():
        return None
    return FullWrap(
        pair=pair, value=inner.args[0], ttid=inner.args[1], client=node.args[1], node=node
    )


def match_from_wrap(node: ast.Expression, registry: ConversionRegistry) -> Optional[FromWrap]:
    if not isinstance(node, ast.FunctionCall) or len(node.args) != 2:
        return None
    pair = registry.by_function(node.name)
    if pair is None or node.name.lower() != pair.from_universal.lower():
        return None
    if match_full_wrap(node, registry) is not None:
        return None
    return FromWrap(pair=pair, value=node.args[0], client=node.args[1], node=node)


def match_to_wrap(node: ast.Expression, registry: ConversionRegistry) -> Optional[ToWrap]:
    if not isinstance(node, ast.FunctionCall) or len(node.args) != 2:
        return None
    pair = registry.by_function(node.name)
    if pair is None or node.name.lower() != pair.to_universal.lower():
        return None
    return ToWrap(pair=pair, value=node.args[0], ttid=node.args[1], node=node)


def find_wraps(
    expr: Optional[ast.Expression], registry: ConversionRegistry
) -> tuple[list[FullWrap], list[FromWrap]]:
    """All conversion wraps in an expression (not descending into sub-queries).

    Full wraps are not double counted as from wraps, and the inner ``to``
    call of a full wrap is not reported separately.
    """
    full_wraps: list[FullWrap] = []
    from_wraps: list[FromWrap] = []

    def visit(node: Optional[ast.Expression]) -> None:
        if node is None:
            return
        full = match_full_wrap(node, registry)
        if full is not None:
            full_wraps.append(full)
            visit(full.value)
            return
        partial = match_from_wrap(node, registry)
        if partial is not None:
            from_wraps.append(partial)
            visit(partial.value)
            return
        for child in node.children():
            visit(child)

    visit(expr)
    return full_wraps, from_wraps


def contains_conversion_call(expr: Optional[ast.Expression], registry: ConversionRegistry) -> bool:
    """True when the expression calls any registered conversion function."""
    return any(
        isinstance(node, ast.FunctionCall) and registry.by_function(node.name) is not None
        for node in walk_expression(expr)
    )


def on_multiplicative_path(root: Optional[ast.Expression], target: ast.Expression) -> bool:
    """Is ``target`` reachable from ``root`` through factor-commuting nodes only?

    A constant factor applied to ``target`` (what stripping a constant-factor
    conversion does) can be pulled out of the whole expression exactly when
    every ancestor on the path is a multiplication, the numerator of a
    division, a unary minus, or a CASE branch whose sibling branches are the
    literal 0 (or NULL).  This is the validity condition for aggregation
    distribution (§4.2.2) and for deferring ``fromUniversal`` calls out of
    sub-queries (client presentation push-up).
    """
    if root is None:
        return False
    if root is target:
        return True
    if isinstance(root, ast.BinaryOp):
        if root.op == "*":
            return on_multiplicative_path(root.left, target) or on_multiplicative_path(
                root.right, target
            )
        if root.op == "/":
            return on_multiplicative_path(root.left, target)
        return False
    if isinstance(root, ast.UnaryOp) and root.op == "-":
        return on_multiplicative_path(root.operand, target)
    if isinstance(root, ast.Case):
        containing = None
        for when in root.whens:
            if _contains_node(when.condition, target):
                return False
            if _contains_node(when.result, target):
                containing = when.result
        if _contains_node(root.else_result, target):
            containing = root.else_result
        if containing is None:
            return False
        siblings = [when.result for when in root.whens] + (
            [root.else_result] if root.else_result is not None else []
        )
        for sibling in siblings:
            if sibling is containing:
                continue
            if not (isinstance(sibling, ast.Literal) and sibling.value in (0, 0.0, None)):
                return False
        return on_multiplicative_path(containing, target)
    return False


def _contains_node(root: Optional[ast.Expression], target: ast.Expression) -> bool:
    return any(node is target for node in walk_expression(root))
