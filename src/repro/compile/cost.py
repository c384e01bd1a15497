"""The cost model: selectivity estimation, plan estimates, federated pushdown.

This module turns the statistics of :mod:`repro.compile.stats` into planning
decisions.  It has three consumers:

* the **engine planner** (:mod:`repro.engine.planner`) asks for filtered
  cardinality estimates to order comma-joins smallest-first and to pick the
  next join partner by estimated join output instead of query text order;
* the **cluster planner** (:mod:`repro.cluster.planner`) asks
  :func:`derive_table_prefilters` / :func:`derive_pull_columns` which
  predicates and projections can soundly be pushed into the per-shard pull
  queries of a federated plan, and uses estimated selectivities to make the
  costed keep-or-drop choice per pushed filter;
* **EXPLAIN** renders the :class:`PlanEstimate` tree built by
  :func:`estimate_select`, and ``explain(analyze=True)`` reports estimated
  vs. actual result rows.

Everything here is *advisory*: a wrong estimate can pick a slower plan but
never a wrong answer.  The only soundness-critical code is the prefilter
derivation, whose rule is spelled out on :func:`derive_table_prefilters` —
every pushed predicate must be provably implied for **every** occurrence of
the table in the statement, because the scratch backend holds one copy of
the table serving all occurrences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from ..sql import ast
from ..sql.types import Date, date_days
from ..sql.transform import (
    statement_expressions,
    transform_expression,
    walk_expression,
    walk_selects,
)
from .analysis import ClusterCatalog
from .stats import StatisticsCatalog, TableStats

#: cardinality assumed for a table with no collected statistics
DEFAULT_TABLE_ROWS = 1000.0
#: selectivity of a predicate the model cannot classify
DEFAULT_SELECTIVITY = 1.0 / 3.0
#: selectivity of a membership test against an unestimated sub-query
SUBQUERY_SELECTIVITY = 0.3
#: selectivity of a LIKE against a prefix pattern / an infix pattern
LIKE_PREFIX_SELECTIVITY = 0.1
LIKE_INFIX_SELECTIVITY = 0.25
#: keep-or-drop threshold for a derived federated prefilter: a filter
#: estimated to keep more than this fraction of its table is not worth the
#: per-shard evaluation and is dropped
PREFILTER_MAX_SELECTIVITY = 0.95


# ---------------------------------------------------------------------------
# Selectivity estimation
# ---------------------------------------------------------------------------


def predicate_selectivity(
    expr: Optional[ast.Expression],
    stats: Optional[TableStats],
    proven_not_null: Optional[frozenset] = None,
) -> float:
    """Estimated fraction of a table's rows satisfying ``expr``.

    ``expr`` is assumed to reference columns of the single table described
    by ``stats`` (qualifiers are ignored); with ``stats=None`` every leaf
    predicate gets a magic-constant selectivity.  ``proven_not_null`` is
    the set of lower-cased column names the static analyzer proved never
    NULL (see :mod:`repro.compile.typecheck`) — ``IS NULL`` tests on those
    columns are exact (0 or 1), not estimated.  The result is clamped to
    ``[0, 1]``.
    """
    return max(0.0, min(1.0, _selectivity(expr, stats, proven_not_null)))


def _selectivity(
    expr: Optional[ast.Expression],
    stats: Optional[TableStats],
    proven: Optional[frozenset] = None,
) -> float:
    if expr is None:
        return 1.0
    if isinstance(expr, ast.BinaryOp):
        op = expr.op.upper()
        if op == "AND":
            return _selectivity(expr.left, stats, proven) * _selectivity(
                expr.right, stats, proven
            )
        if op == "OR":
            left = _selectivity(expr.left, stats, proven)
            right = _selectivity(expr.right, stats, proven)
            return left + right - left * right
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return _comparison_selectivity(expr, stats)
        return DEFAULT_SELECTIVITY
    if isinstance(expr, ast.UnaryOp) and expr.op.upper() == "NOT":
        return 1.0 - _selectivity(expr.operand, stats, proven)
    if isinstance(expr, ast.Between):
        low = _comparison_parts(expr.expr, expr.low, ">=", stats)
        high = _comparison_parts(expr.expr, expr.high, "<=", stats)
        # the inclusion-exclusion overlap is only meaningful for interpolated
        # fractions; two magic-constant sides would cancel to zero
        if low == DEFAULT_SELECTIVITY and high == DEFAULT_SELECTIVITY:
            combined = DEFAULT_SELECTIVITY
        else:
            combined = max(0.0, low + high - 1.0)
        return 1.0 - combined if expr.negated else combined
    if isinstance(expr, ast.InList):
        return _in_list_selectivity(expr, stats)
    if isinstance(expr, ast.InSubquery):
        return 1.0 - SUBQUERY_SELECTIVITY if expr.negated else SUBQUERY_SELECTIVITY
    if isinstance(expr, ast.Exists):
        return 0.5
    if isinstance(expr, ast.Like):
        pattern = expr.pattern
        if isinstance(pattern, ast.Literal) and isinstance(pattern.value, str):
            prefixed = not pattern.value.startswith(("%", "_"))
            chosen = LIKE_PREFIX_SELECTIVITY if prefixed else LIKE_INFIX_SELECTIVITY
        else:
            chosen = LIKE_INFIX_SELECTIVITY
        return 1.0 - chosen if expr.negated else chosen
    if isinstance(expr, ast.IsNull):
        fraction = _null_fraction(expr.expr, stats, proven)
        return 1.0 - fraction if expr.negated else fraction
    return DEFAULT_SELECTIVITY


def _comparison_selectivity(expr: ast.BinaryOp, stats: Optional[TableStats]) -> float:
    column, value, op = _orient_comparison(expr)
    if column is None:
        return DEFAULT_SELECTIVITY
    return _comparison_parts(column, value, op, stats)


def _orient_comparison(expr: ast.BinaryOp):
    """Normalize ``col <op> value`` / ``value <op> col`` to ``(col, value, op)``."""
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>"}
    if isinstance(expr.left, ast.Column):
        return expr.left, expr.right, expr.op
    if isinstance(expr.right, ast.Column):
        return expr.right, expr.left, flipped.get(expr.op, expr.op)
    return None, None, expr.op


def _comparison_parts(
    column: ast.Expression,
    value: Optional[ast.Expression],
    op: str,
    stats: Optional[TableStats],
) -> float:
    if not isinstance(column, ast.Column):
        return DEFAULT_SELECTIVITY
    column_stats = stats.column(column.name) if stats is not None else None
    literal = _literal_value(value)
    if op == "=":
        if (
            stats is not None
            and stats.ttid_column == column.name.lower()
            and literal is not None
            and stats.row_count
        ):
            return stats.tenant_rows.get(literal, 0) / stats.row_count
        if column_stats is None or column_stats.ndv == 0:
            return LIKE_PREFIX_SELECTIVITY
        if literal is not None and column_stats.values is not None:
            if literal not in column_stats.values:
                return 0.0
        return 1.0 / column_stats.ndv
    if op == "<>":
        if column_stats is None or column_stats.ndv == 0:
            return 1.0 - LIKE_PREFIX_SELECTIVITY
        return 1.0 - 1.0 / column_stats.ndv
    if op in ("<", "<=", ">", ">="):
        if column_stats is None or literal is None:
            return DEFAULT_SELECTIVITY
        fraction = _range_fraction(
            column_stats.min_value, column_stats.max_value, literal
        )
        if fraction is None:
            return DEFAULT_SELECTIVITY
        return fraction if op in ("<", "<=") else 1.0 - fraction
    return DEFAULT_SELECTIVITY


def _in_list_selectivity(expr: ast.InList, stats: Optional[TableStats]) -> float:
    target = expr.expr
    chosen = DEFAULT_SELECTIVITY
    if isinstance(target, ast.Column):
        column_stats = stats.column(target.name) if stats is not None else None
        values = [_literal_value(item) for item in expr.items]
        if (
            stats is not None
            and stats.ttid_column == target.name.lower()
            and stats.row_count
            and all(value is not None for value in values)
        ):
            kept = sum(stats.tenant_rows.get(value, 0) for value in values)
            chosen = kept / stats.row_count
        elif column_stats is not None and column_stats.ndv:
            if column_stats.values is not None and all(
                value is not None for value in values
            ):
                matching = sum(1 for value in values if value in column_stats.values)
            else:
                matching = len(expr.items)
            chosen = min(1.0, matching / column_stats.ndv)
        else:
            chosen = min(1.0, len(expr.items) * LIKE_PREFIX_SELECTIVITY)
    return 1.0 - chosen if expr.negated else chosen


def _null_fraction(
    expr: ast.Expression,
    stats: Optional[TableStats],
    proven: Optional[frozenset] = None,
) -> float:
    if isinstance(expr, ast.Column):
        # A proven-NOT-NULL column is exact, not an estimate: the analyzer
        # guarantees no stored value is NULL, so IS NULL keeps nothing.
        if proven is not None and expr.name.lower() in proven:
            return 0.0
        if stats is not None and stats.row_count:
            column_stats = stats.column(expr.name)
            if column_stats is not None:
                return column_stats.null_count / stats.row_count
    return 0.05


def _literal_value(expr: Optional[ast.Expression]):
    if isinstance(expr, ast.Literal):
        return expr.value
    return None


def _range_fraction(low, high, value) -> Optional[float]:
    """Fraction of ``[low, high]`` below ``value`` (linear interpolation)."""
    if low is None or high is None:
        return None
    low, high, value = _as_ordinal(low), _as_ordinal(high), _as_ordinal(value)
    try:
        if value <= low:
            return 0.0
        if value >= high:
            return 1.0
        span = high - low
        return (value - low) / span
    except (TypeError, ZeroDivisionError):
        return None


def _as_ordinal(value):
    """A subtractable stand-in for interpolation (dates become day counts)."""
    return date_days(value) if isinstance(value, Date) else value


# ---------------------------------------------------------------------------
# Binding resolution (shared by estimates and pushdown derivation)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Binding:
    """One FROM-clause binding of a SELECT."""

    name: str  # lower-cased binding (alias or table name)
    table: Optional[str]  # lower-cased base table, None for derived tables
    columns: Optional[frozenset[str]]  # visible column names, None if unknown
    subquery: Optional[ast.Select] = None


def _flatten_from(items: Iterable[ast.FromItem]) -> list[ast.FromItem]:
    flat: list[ast.FromItem] = []
    for item in items:
        if isinstance(item, ast.Join):
            flat.extend(_flatten_from([item.left, item.right]))
        else:
            flat.append(item)
    return flat


def _select_bindings(
    select: ast.Select, columns_of: Mapping[str, Sequence[str]]
) -> dict[str, _Binding]:
    bindings: dict[str, _Binding] = {}
    for item in _flatten_from(select.from_items):
        if isinstance(item, ast.TableRef):
            table = item.name.lower()
            known = columns_of.get(table)
            bindings[item.binding.lower()] = _Binding(
                name=item.binding.lower(),
                table=table,
                columns=(
                    frozenset(column.lower() for column in known)
                    if known is not None
                    else None
                ),
            )
        elif isinstance(item, ast.SubqueryRef):
            outputs: Optional[set[str]] = set()
            for select_item in item.query.items:
                if select_item.alias is not None:
                    outputs.add(select_item.alias.lower())
                elif isinstance(select_item.expr, ast.Column):
                    outputs.add(select_item.expr.name.lower())
                else:
                    outputs = None
                    break
            bindings[item.binding.lower()] = _Binding(
                name=item.binding.lower(),
                table=None,
                columns=frozenset(outputs) if outputs is not None else None,
                subquery=item.query,
            )
    return bindings


def _resolve_column(
    column: ast.Column, bindings: Mapping[str, _Binding]
) -> Optional[_Binding]:
    """The unique binding a column reference resolves to, or ``None``."""
    if column.table is not None:
        return bindings.get(column.table.lower())
    name = column.name.lower()
    matches = [
        binding
        for binding in bindings.values()
        if binding.columns is not None and name in binding.columns
    ]
    unknown = any(binding.columns is None for binding in bindings.values())
    if len(matches) == 1 and not unknown:
        return matches[0]
    return None


def _attributed_conjuncts(
    select: ast.Select, bindings: Mapping[str, _Binding]
) -> tuple[dict[str, list[ast.Expression]], list[ast.Expression]]:
    """Split WHERE conjuncts into per-binding lists plus the leftovers.

    A conjunct belongs to a binding when every column reference in it (not
    descending into sub-queries) resolves to that binding.
    """
    per_binding: dict[str, list[ast.Expression]] = {}
    rest: list[ast.Expression] = []
    for conjunct in ast.split_conjuncts(select.where):
        owners: set[Optional[str]] = set()
        for node in walk_expression(conjunct):
            if isinstance(node, ast.Column):
                binding = _resolve_column(node, bindings)
                owners.add(binding.name if binding is not None else None)
        if len(owners) == 1 and None not in owners:
            per_binding.setdefault(next(iter(owners)), []).append(conjunct)
        else:
            rest.append(conjunct)
    return per_binding, rest


# ---------------------------------------------------------------------------
# Plan estimates (EXPLAIN)
# ---------------------------------------------------------------------------


@dataclass
class PlanEstimate:
    """One node of an estimated plan tree.

    ``rows`` is the estimated output cardinality, ``cost`` an abstract
    rows-processed figure accumulated bottom-up.  Scan nodes carry the base
    ``table`` and the conjunction of single-table predicates attributed to
    it (``predicate``), which is what the estimator-regression tests replay
    as ``SELECT COUNT(*)`` probes.
    """

    kind: str
    label: str
    rows: float
    cost: float
    table: Optional[str] = None
    predicate: Optional[ast.Expression] = None
    children: tuple["PlanEstimate", ...] = ()

    def lines(self, indent: int = 0) -> list[str]:
        """The indented one-line-per-node rendering of this subtree."""
        head = (
            f"{'  ' * indent}{self.kind} {self.label}  "
            f"rows≈{self.rows:.0f} cost≈{self.cost:.0f}"
        )
        rendered = [head]
        for child in self.children:
            rendered.extend(child.lines(indent + 1))
        return rendered

    def render(self) -> str:
        """The whole estimate tree as text."""
        return "\n".join(self.lines())

    def scans(self) -> list["PlanEstimate"]:
        """Every base-table scan node in this subtree."""
        found = [self] if self.kind == "scan" and self.table is not None else []
        for child in self.children:
            found.extend(child.scans())
        return found


def estimate_select(
    select: ast.Select,
    statistics: Optional[StatisticsCatalog],
    columns_of: Optional[Mapping[str, Sequence[str]]] = None,
    proven_not_null: Optional[Mapping[str, frozenset]] = None,
) -> PlanEstimate:
    """Build the estimated plan tree of one SELECT.

    ``columns_of`` (base table → column names) sharpens unqualified-column
    resolution; when omitted it is reconstructed from the statistics.
    ``proven_not_null`` (lower-cased base table → lower-cased column names)
    carries the static analyzer's nullability proof so ``IS NULL`` scans
    get exact rather than estimated selectivities.
    """
    if columns_of is None:
        columns_of = {
            name: tuple(table.columns) for name, table in (
                statistics.tables.items() if statistics is not None else ()
            )
        }
    bindings = _select_bindings(select, columns_of)
    per_binding, rest = _attributed_conjuncts(select, bindings)

    sources: list[PlanEstimate] = []
    for item in _flatten_from(select.from_items):
        binding = bindings.get(item.binding.lower()) if item.binding else None
        conjuncts = per_binding.get(binding.name, []) if binding is not None else []
        predicate = ast.and_(*conjuncts)
        if isinstance(item, ast.TableRef):
            table_stats = (
                statistics.table(item.name) if statistics is not None else None
            )
            base = float(table_stats.row_count) if table_stats else DEFAULT_TABLE_ROWS
            proven = (
                proven_not_null.get(item.name.lower())
                if proven_not_null is not None
                else None
            )
            selectivity = predicate_selectivity(predicate, table_stats, proven)
            sources.append(
                PlanEstimate(
                    kind="scan",
                    label=item.binding,
                    rows=max(base * selectivity, 0.0),
                    cost=base,
                    table=item.name.lower(),
                    predicate=predicate,
                )
            )
        elif isinstance(item, ast.SubqueryRef):
            child = estimate_select(item.query, statistics, columns_of, proven_not_null)
            selectivity = predicate_selectivity(predicate, None)
            sources.append(
                PlanEstimate(
                    kind="derived",
                    label=item.binding,
                    rows=max(child.rows * selectivity, 0.0),
                    cost=child.cost,
                    predicate=predicate,
                    children=(child,),
                )
            )
    if not sources:
        sources = [PlanEstimate(kind="values", label="constant", rows=1.0, cost=0.0)]

    node = sources[0]
    joined = {sources[0].label.lower()}
    for source in sources[1:]:
        joined.add(source.label.lower())
        rows = node.rows * source.rows
        consumed = 0
        for conjunct in rest:
            ndv = _equi_join_ndv(conjunct, joined, bindings, statistics)
            if ndv is not None:
                rows /= max(ndv, 1.0)
                consumed += 1
        rows = max(rows, 1.0)
        node = PlanEstimate(
            kind="join",
            label=f"{node.label}⋈{source.label}",
            rows=rows,
            cost=node.cost + source.cost + rows,
            children=(node, source),
        )
    unconsumed = [
        conjunct
        for conjunct in rest
        if _equi_join_ndv(conjunct, joined, bindings, statistics) is None
    ]
    if unconsumed and len(sources) > 1:
        factor = DEFAULT_SELECTIVITY ** len(unconsumed)
        node = PlanEstimate(
            kind="filter",
            label=f"{len(unconsumed)} residual",
            rows=max(node.rows * factor, 0.0),
            cost=node.cost,
            children=(node,),
        )

    has_aggregates = any(
        isinstance(sub, ast.FunctionCall) and sub.is_aggregate
        for item in select.items
        for sub in walk_expression(item.expr)
    )
    if select.group_by:
        groups = 1.0
        for expr in select.group_by:
            groups *= _group_ndv(expr, bindings, statistics)
        rows = min(node.rows, max(groups, 1.0))
        node = PlanEstimate(
            kind="aggregate",
            label=f"group by {len(select.group_by)}",
            rows=rows,
            cost=node.cost + node.rows,
            children=(node,),
        )
    elif has_aggregates:
        node = PlanEstimate(
            kind="aggregate",
            label="scalar",
            rows=1.0,
            cost=node.cost + node.rows,
            children=(node,),
        )
    if select.having is not None:
        node = PlanEstimate(
            kind="having",
            label="filter",
            rows=max(node.rows * DEFAULT_SELECTIVITY, 1.0),
            cost=node.cost,
            children=(node,),
        )
    if select.distinct:
        node = PlanEstimate(
            kind="distinct",
            label="hash",
            rows=node.rows,
            cost=node.cost + node.rows,
            children=(node,),
        )
    if select.order_by:
        sort_cost = node.rows * math.log2(node.rows + 2.0)
        node = PlanEstimate(
            kind="order",
            label=f"{len(select.order_by)} keys",
            rows=node.rows,
            cost=node.cost + sort_cost,
            children=(node,),
        )
    if select.limit is not None:
        node = PlanEstimate(
            kind="limit",
            label=str(select.limit),
            rows=min(node.rows, float(select.limit)),
            cost=node.cost,
            children=(node,),
        )
    return node


def _equi_join_ndv(
    conjunct: ast.Expression,
    joined: set[str],
    bindings: Mapping[str, _Binding],
    statistics: Optional[StatisticsCatalog],
) -> Optional[float]:
    """For an equi-join conjunct between joined bindings, the divisor NDV."""
    if not (
        isinstance(conjunct, ast.BinaryOp)
        and conjunct.op == "="
        and isinstance(conjunct.left, ast.Column)
        and isinstance(conjunct.right, ast.Column)
    ):
        return None
    sides = []
    for column in (conjunct.left, conjunct.right):
        binding = _resolve_column(column, bindings)
        if binding is None or binding.name not in joined:
            return None
        sides.append((binding, column))
    if sides[0][0].name == sides[1][0].name:
        return None
    ndvs = []
    for binding, column in sides:
        ndv = _column_ndv(binding, column.name, statistics)
        if ndv is not None:
            ndvs.append(ndv)
    return float(max(ndvs)) if ndvs else 10.0


def _column_ndv(
    binding: _Binding, column: str, statistics: Optional[StatisticsCatalog]
) -> Optional[int]:
    if statistics is None or binding.table is None:
        return None
    table_stats = statistics.table(binding.table)
    if table_stats is None:
        return None
    column_stats = table_stats.column(column)
    return column_stats.ndv if column_stats is not None else None


def _group_ndv(
    expr: ast.Expression,
    bindings: Mapping[str, _Binding],
    statistics: Optional[StatisticsCatalog],
) -> float:
    if isinstance(expr, ast.Column):
        binding = _resolve_column(expr, bindings)
        if binding is not None:
            ndv = _column_ndv(binding, expr.name, statistics)
            if ndv is not None:
                return float(max(ndv, 1))
    return 10.0


# ---------------------------------------------------------------------------
# Federated pushdown derivation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TablePrefilter:
    """A predicate soundly pushable into the per-shard pull of one table.

    ``predicate`` is expressed over the table's raw (unqualified) columns;
    any sub-query inside it references replicated tables only, so it
    evaluates identically on every shard.  ``selectivity`` is the estimated
    kept fraction (1.0 when no statistics were available).
    """

    table: str
    predicate: ast.Expression
    selectivity: float = 1.0

    def describe(self) -> str:
        """Short ``table(≈fraction)`` rendering for plan summaries."""
        return f"{self.table}(≈{self.selectivity:.2f})"


def derive_table_prefilters(
    select: ast.Select,
    catalog: ClusterCatalog,
    columns_of: Mapping[str, Sequence[str]],
    statistics: Optional[StatisticsCatalog] = None,
) -> tuple[TablePrefilter, ...]:
    """Derive the predicates a federated plan may push into its table pulls.

    **Soundness rule.**  The scratch backend holds one copy of each pulled
    table and runs the *original* statement against it, so a row may only be
    skipped when **every** occurrence of the table (across all nested
    sub-queries) provably rejects it.  Per occurrence the implied filter is
    the conjunction of

    * WHERE conjuncts of the enclosing SELECT whose column references all
      resolve to that occurrence, where any nested sub-query references
      replicated tables only (replicas are identical on every shard, so the
      predicate evaluates to the same verdict at pull time as at query
      time), and
    * synthesized semi-joins ``col IN (SELECT key FROM g WHERE …)`` from
      equi-join equivalence classes that connect the occurrence to a
      replicated table ``g`` carrying its own single-table predicates —
      including one propagation step through a derived table whose output
      column passes the joined column through (un-aggregated, or as a
      GROUP BY key, never under a LIMIT).

    The per-table pushed predicate is the OR across occurrences; a single
    unfiltered occurrence vetoes the table.  With statistics, filters whose
    estimated selectivity exceeds :data:`PREFILTER_MAX_SELECTIVITY` are
    dropped (not worth the per-shard evaluation).
    """
    occurrences: dict[str, list[Optional[ast.Expression]]] = {}
    propagated: dict[tuple[int, str], list[ast.Expression]] = {}

    for sub_select in walk_selects(select):
        bindings = _select_bindings(sub_select, columns_of)
        per_binding, _ = _attributed_conjuncts(sub_select, bindings)
        classes = _equi_classes(sub_select, bindings)
        semi_joins = _synthesize_semi_joins(
            sub_select, bindings, per_binding, classes, catalog, propagated
        )
        for item in _flatten_from(sub_select.from_items):
            if not isinstance(item, ast.TableRef):
                continue
            table = item.name.lower()
            if table not in catalog.relations:
                continue
            binding = bindings[item.binding.lower()]
            parts: list[ast.Expression] = []
            for conjunct in per_binding.get(binding.name, []):
                if _pushable_conjunct(conjunct, catalog, columns_of):
                    parts.append(_strip_qualifiers(conjunct, binding.name))
            parts.extend(semi_joins.get(binding.name, []))
            parts.extend(propagated.get((id(sub_select), binding.name), []))
            occurrences.setdefault(table, []).append(ast.and_(*parts))

    prefilters: list[TablePrefilter] = []
    for table in sorted(occurrences):
        filters = occurrences[table]
        if any(part is None for part in filters):
            continue
        predicate = filters[0]
        for part in filters[1:]:
            if ast.Node.to_sql(part) != ast.Node.to_sql(predicate):
                predicate = ast.BinaryOp("OR", predicate, part)
        table_stats = statistics.table(table) if statistics is not None else None
        selectivity = predicate_selectivity(predicate, table_stats)
        if table_stats is not None and selectivity > PREFILTER_MAX_SELECTIVITY:
            continue
        prefilters.append(
            TablePrefilter(table=table, predicate=predicate, selectivity=selectivity)
        )
    return tuple(prefilters)


def _equi_classes(
    select: ast.Select, bindings: Mapping[str, _Binding]
) -> list[set[tuple[str, str]]]:
    """Equivalence classes of ``(binding, column)`` under equi-join conjuncts."""
    classes: list[set[tuple[str, str]]] = []
    for conjunct in ast.split_conjuncts(select.where):
        if not (
            isinstance(conjunct, ast.BinaryOp)
            and conjunct.op == "="
            and isinstance(conjunct.left, ast.Column)
            and isinstance(conjunct.right, ast.Column)
        ):
            continue
        members = []
        for column in (conjunct.left, conjunct.right):
            binding = _resolve_column(column, bindings)
            if binding is None:
                members = []
                break
            members.append((binding.name, column.name.lower()))
        if len(members) != 2 or members[0] == members[1]:
            continue
        touched = [cls for cls in classes if cls & set(members)]
        merged = set(members)
        for cls in touched:
            merged |= cls
            classes.remove(cls)
        classes.append(merged)
    return classes


def _synthesize_semi_joins(
    select: ast.Select,
    bindings: Mapping[str, _Binding],
    per_binding: Mapping[str, list[ast.Expression]],
    classes: list[set[tuple[str, str]]],
    catalog: ClusterCatalog,
    propagated: dict[tuple[int, str], list[ast.Expression]],
) -> dict[str, list[ast.Expression]]:
    """Per-binding semi-join filters synthesized from join equivalence classes.

    Side effect: records filters propagated through derived tables into
    ``propagated`` (keyed by the derived sub-query's identity), consumed
    when the walk reaches that sub-query.
    """
    synthesized: dict[str, list[ast.Expression]] = {}
    for cls in classes:
        filtered_sources = []
        for member_binding, member_column in cls:
            binding = bindings.get(member_binding)
            if binding is None or binding.table is None:
                continue
            if not catalog.is_replicated_table(binding.table):
                continue
            conjuncts = [
                conjunct
                for conjunct in per_binding.get(member_binding, [])
                if _pushable_conjunct(conjunct, catalog, {})
            ]
            if conjuncts:
                filtered_sources.append((binding, member_column, conjuncts))
        if not filtered_sources:
            continue
        source_binding, source_column, source_conjuncts = filtered_sources[0]
        member_query = ast.Select(
            items=[ast.SelectItem(expr=ast.Column(name=source_column))],
            from_items=[ast.TableRef(name=source_binding.table)],
            where=ast.and_(
                *(
                    _strip_qualifiers(conjunct, source_binding.name)
                    for conjunct in source_conjuncts
                )
            ),
        )
        for member_binding, member_column in cls:
            binding = bindings.get(member_binding)
            if binding is None or binding.name == source_binding.name:
                continue
            semi_join = ast.InSubquery(
                expr=ast.Column(name=member_column), query=member_query
            )
            if binding.table is not None:
                synthesized.setdefault(binding.name, []).append(semi_join)
            elif binding.subquery is not None:
                _propagate_into_derived(
                    binding, member_column, member_query, propagated
                )
    return synthesized


def _propagate_into_derived(
    binding: _Binding,
    output_column: str,
    member_query: ast.Select,
    propagated: dict[tuple[int, str], list[ast.Expression]],
) -> None:
    """Push a semi-join one level into a derived table, when sound.

    Sound when the derived output column passes an inner base-table column
    through unchanged AND removing inner rows cannot reshape surviving
    output rows: the sub-query has no LIMIT, and either does not aggregate
    at all or groups by that very column (removed rows then only ever
    belong to removed groups).
    """
    query = binding.subquery
    if query is None or query.limit is not None:
        return
    inner_column: Optional[ast.Column] = None
    for item in query.items:
        name = item.alias or (
            item.expr.name if isinstance(item.expr, ast.Column) else None
        )
        if name is not None and name.lower() == output_column:
            if isinstance(item.expr, ast.Column):
                inner_column = item.expr
            break
    if inner_column is None:
        return
    has_aggregates = any(
        isinstance(sub, ast.FunctionCall) and sub.is_aggregate
        for item in query.items
        for sub in walk_expression(item.expr)
    )
    if query.group_by or has_aggregates:
        grouped = any(
            isinstance(expr, ast.Column)
            and expr.name.lower() == inner_column.name.lower()
            for expr in query.group_by
        )
        if not grouped:
            return
    inner_bindings = _select_bindings(query, {})
    target = (
        inner_bindings.get(inner_column.table.lower())
        if inner_column.table is not None
        else None
    )
    if target is None:
        candidates = [
            candidate
            for candidate in inner_bindings.values()
            if candidate.table is not None
        ]
        if len(candidates) != 1:
            return
        target = candidates[0]
    if target.table is None:
        return
    semi_join = ast.InSubquery(
        expr=ast.Column(name=inner_column.name), query=member_query
    )
    propagated.setdefault((id(query), target.name), []).append(semi_join)


def _pushable_conjunct(
    conjunct: ast.Expression,
    catalog: ClusterCatalog,
    columns_of: Mapping[str, Sequence[str]],
) -> bool:
    """Whether a single-binding conjunct may run at pull time on a shard.

    Requires every nested sub-query to reference replicated tables only and
    to be self-contained (no correlated references escaping the sub-query),
    and the conjunct to be parameter-free: a federated plan is memoized per
    statement, so a prefilter baked from one execution's bind values would
    silently filter the next execution's pull.
    """
    for node in walk_expression(conjunct):
        if isinstance(node, ast.Parameter):
            return False
        if isinstance(node, ast.SUBQUERY_NODES):
            if not _replicated_only_subquery(node.query, catalog):
                return False
            if _contains_parameter(node.query):
                return False
    return True


def _contains_parameter(query: ast.Select) -> bool:
    return any(
        isinstance(node, ast.Parameter)
        for expr in statement_expressions(query)
        for node in walk_expression(expr)
    )


def _replicated_only_subquery(query: ast.Select, catalog: ClusterCatalog) -> bool:
    visible: set[str] = set()
    tables: set[str] = set()
    for sub_select in walk_selects(query):
        for item in _flatten_from(sub_select.from_items):
            if isinstance(item, ast.TableRef):
                if not catalog.is_replicated_table(item.name):
                    return False
                tables.add(item.name.lower())
                visible.add(item.binding.lower())
            elif isinstance(item, ast.SubqueryRef):
                visible.add(item.binding.lower())
    for expr in statement_expressions(query):
        for node in walk_expression(expr):
            if isinstance(node, ast.Column) and node.table is not None:
                if node.table.lower() not in visible:
                    return False
    return True


def _strip_qualifiers(expr: ast.Expression, binding: str) -> ast.Expression:
    """Rewrite ``binding.col`` references to bare ``col`` (pull-query form)."""

    def strip(node: ast.Expression) -> Optional[ast.Expression]:
        if isinstance(node, ast.Column) and node.table is not None:
            if node.table.lower() == binding:
                return ast.Column(name=node.name)
        return None

    stripped = transform_expression(expr, strip)
    assert stripped is not None
    return stripped


# ---------------------------------------------------------------------------
# Projection pushdown
# ---------------------------------------------------------------------------


def referenced_column_names(
    statements: Iterable[ast.Select],
) -> Optional[frozenset[str]]:
    """Every column name referenced anywhere in the statements (lower-cased).

    Returns ``None`` when a ``*`` outside ``COUNT(*)`` makes the reference
    set unbounded — callers must then pull every column.  The analysis is
    deliberately name-based (not binding-resolved): a column is considered
    referenced for *every* table that has a column of that name, which can
    only over-pull, never under-pull.
    """
    names: set[str] = set()
    for statement in statements:
        for expr in statement_expressions(statement):
            if not _collect_names(expr, names):
                return None
    return frozenset(names)


def _collect_names(expr: ast.Expression, names: set[str]) -> bool:
    """Collect column names from one expression; ``False`` when a star blocks.

    A bare ``*`` blocks, the one inside ``COUNT(*)`` does not.  Sub-query
    bodies are skipped — ``statement_expressions`` yields their expressions
    separately.
    """
    if isinstance(expr, ast.Star):
        return False
    if isinstance(expr, ast.Column):
        names.add(expr.name.lower())
    if isinstance(expr, ast.FunctionCall) and expr.name.upper() == "COUNT":
        if all(isinstance(argument, ast.Star) for argument in expr.args):
            return True
    return all(_collect_names(child, names) for child in expr.children())


def derive_pull_columns(
    statements: Iterable[ast.Select],
    columns_of: Mapping[str, Sequence[str]],
    always_keep: Optional[Mapping[str, Iterable[str]]] = None,
) -> Optional[dict[str, tuple[str, ...]]]:
    """Per-table column subsets a federated plan needs to pull.

    ``always_keep`` adds per-table must-pull columns (the ttid column of
    partitioned tables).  Returns ``None`` when projection pushdown is
    blocked (a bare ``*``), or a mapping with an entry per table whose
    column set genuinely shrank.
    """
    referenced = referenced_column_names(statements)
    if referenced is None:
        return None
    pulls: dict[str, tuple[str, ...]] = {}
    keep = always_keep or {}
    for table, columns in columns_of.items():
        forced = {column.lower() for column in keep.get(table, ())}
        chosen = tuple(
            column
            for column in columns
            if column.lower() in referenced or column.lower() in forced
        )
        if chosen and len(chosen) < len(columns):
            pulls[table] = chosen
    return pulls
