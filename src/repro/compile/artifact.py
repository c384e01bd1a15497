"""The compilation artifact: everything one statement's compilation produced.

A :class:`CompiledQuery` is the single hand-off object between the layers of
the repo's hottest path.  The middleware compiles each SELECT exactly once;
the client executes ``compiled.rewritten``, the gateway caches the whole
artifact (a warm hit skips compilation *and* shard planning), and a sharded
backend plans it with ``compiled.facts.column_owners`` and memoizes its
cluster plan in ``compiled.attachments``.

Per-stage instrumentation lives in :class:`PassRecord` — wall time, AST
node-count delta, fired-rule count and a rendered-on-demand SQL snapshot —
which is what ``MTConnection.explain()`` reports.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..sql import ast
from ..sql.transform import iter_select_expressions, walk_expression, walk_selects

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.conversion import ConversionRegistry
    from ..core.optimizer.levels import OptimizationLevel
    from ..sql.params import ParameterSlot
    from .typecheck import SemanticFacts


def conversion_census(select: ast.Select, registry: "ConversionRegistry") -> dict[str, int]:
    """Count the conversion-function calls in a query, per function name.

    The census is the paper's central cost driver (§4 optimizes exactly this
    number): every ``toUniversal``/``fromUniversal`` call of a registered
    conversion pair is counted, descending into sub-queries.  After the
    inlining pass the census is empty — the calls became plain expressions.
    """
    counts: dict[str, int] = {}
    for sub_select in walk_selects(select):
        for expr in iter_select_expressions(sub_select):
            for node in walk_expression(expr):
                if isinstance(node, ast.FunctionCall) and registry.by_function(node.name):
                    counts[node.name] = counts.get(node.name, 0) + 1
    return counts


@dataclass(frozen=True)
class PassRecord:
    """Instrumentation of one compilation stage (canonical rewrite or a pass)."""

    #: stage name (``"canonical"`` or a registered pass name)
    name: str
    #: wall time the stage took
    seconds: float
    #: AST node count fed into the stage
    nodes_before: int
    #: AST node count the stage produced
    nodes_after: int
    #: rewrite rules fired (for the canonical stage: conversion calls emitted)
    fired: int
    #: the stage's output AST, held by reference — the pipeline treats ASTs
    #: as immutable, so render it freely but never mutate it (callers that
    #: want to edit go through :meth:`CompiledQuery.snapshot_after`)
    snapshot: ast.Select = field(repr=False)

    @property
    def node_delta(self) -> int:
        """AST growth (+) or shrinkage (−) caused by this stage."""
        return self.nodes_after - self.nodes_before


@dataclass(frozen=True)
class ConversionCensus:
    """Conversion-call counts before and after the optimization passes."""

    #: calls in the canonical rewrite, per function name
    canonical: dict[str, int]
    #: calls in the final rewritten statement, per function name
    final: dict[str, int]

    @property
    def canonical_total(self) -> int:
        """Total conversion calls the canonical rewrite emitted."""
        return sum(self.canonical.values())

    @property
    def final_total(self) -> int:
        """Total conversion calls left in the statement sent to the DBMS."""
        return sum(self.final.values())

    @property
    def eliminated(self) -> int:
        """Calls the optimization passes removed (may be negative for push-ups)."""
        return self.canonical_total - self.final_total


@dataclass
class CompiledQuery:
    """One statement's full compilation result (see the module docstring).

    The dataclass is mutable only through ``attachments`` — a scratch map
    where backends memoize execution artifacts derived from this compilation
    (e.g. the sharded backend's cluster plan, keyed by shard set and catalog
    version).  Everything else is written once by the compiler.
    """

    #: the original parsed MTSQL statement
    statement: ast.Select
    #: the statement after the canonical MTSQL→SQL rewrite
    canonical: ast.Select
    #: the final rewritten statement (what the backend executes)
    rewritten: ast.Select
    #: the client tenant C the statement was compiled for
    client: int
    #: the resolved, privilege-pruned data set D'
    dataset: tuple[int, ...]
    #: the optimization level that selected the passes
    level: OptimizationLevel
    #: the tenant-specific tables the statement touches (privilege pruning)
    tables: tuple[str, ...]
    #: the statement's bind-parameter slots, in index order (empty when the
    #: statement is not parameterized); one artifact serves every binding
    parameters: tuple["ParameterSlot", ...]
    #: per-stage instrumentation, in execution order
    passes: tuple[PassRecord, ...]
    #: conversion-call census (canonical vs. final)
    conversions: ConversionCensus
    #: total compilation wall time
    seconds: float
    #: what the static semantic analyzer proved about the statement: the
    #: cost model reads ``facts.proven_not_null``, the cluster planner
    #: ``facts.column_owners``, the client checks bind values against
    #: ``facts.parameter_types``
    facts: "SemanticFacts" = field(repr=False, compare=False)
    #: backend-owned memo space for derived execution artifacts
    attachments: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def pass_trace(self) -> tuple[str, ...]:
        """The stage names that ran, in order (the per-level taxonomy)."""
        return tuple(record.name for record in self.passes)

    def snapshot_after(self, stage: str) -> Optional[ast.Select]:
        """A deep copy of the AST as it stood after ``stage`` (None if absent)."""
        for record in self.passes:
            if record.name == stage:
                return copy.deepcopy(record.snapshot)
        return None
