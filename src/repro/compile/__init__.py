"""The staged MTSQL→SQL compilation pipeline.

This package turns the paper's rewrite flow (§3.1 canonical rewrite + §4
optimization levels, Table 6) into one explicit, instrumented compiler whose
artifact every layer consumes exactly once:

* :mod:`repro.compile.passes`   — the declarative ``OptimizationLevel →
  [optimizer classes]`` table,
* :mod:`repro.compile.compiler` — :class:`QueryCompiler`, the staged pipeline
  (context → canonical rewrite → passes) with per-stage wall time, AST-size
  deltas and fired-rule counts,
* :mod:`repro.compile.artifact` — :class:`CompiledQuery` (original /
  canonical / final ASTs, resolved ``(C, D')``, conversion-call census,
  per-pass records, backend attachment memo) and :class:`PassRecord`,
* :mod:`repro.compile.analysis` — the tenant-local-key / shardability
  analysis the cluster planner runs against its partitioning catalog,
* :mod:`repro.compile.typecheck` — the prepare-time static analyzer
  (:class:`TypeChecker`) and the :class:`SemanticFacts` it proves: types,
  nullability, bind-parameter slot types, column provenance,
* :mod:`repro.compile.explain`  — the pass-by-pass report behind
  ``MTConnection.explain()``.

The compiler is owned by :class:`repro.core.middleware.MTBase`
(``middleware.compiler``); clients reach it through
``MTConnection.compile()`` / ``explain()``, the gateway caches whole
:class:`CompiledQuery` objects, and sharded backends plan them with
``CompiledQuery.facts.column_owners`` and memoize the plan on the artifact.

The analysis and artifact modules are import-light (SQL layer only) so the
cluster planner can depend on them without cycles; the compiler, passes and
explain modules — which build on :mod:`repro.core` — load lazily on first
attribute access.
"""

from __future__ import annotations

from importlib import import_module

from .analysis import (
    ClusterCatalog,
    PartitionInfo,
    QueryAnalysis,
    ShardabilityAnalyzer,
    StreamInfo,
)
from .artifact import CompiledQuery, ConversionCensus, PassRecord, conversion_census
from .cost import (
    PlanEstimate,
    TablePrefilter,
    derive_pull_columns,
    derive_table_prefilters,
    estimate_select,
    predicate_selectivity,
)
from .typecheck import (
    SemanticFacts,
    TypeChecker,
    UDFSignature,
    check_parameter_values,
    schema_proven_not_null,
)
from .stats import (
    ColumnStats,
    RefreshPolicy,
    StatisticsCatalog,
    TableStats,
    collect_table_stats,
    merge_catalogs,
)

#: names resolved lazily: these submodules import repro.core, which imports
#: repro.backends → repro.cluster → repro.compile.analysis; loading them
#: eagerly would close that loop during a cold ``import repro.backends``
_LAZY_EXPORTS = {
    "CompilerStats": ("compiler", "CompilerStats"),
    "QueryCompiler": ("compiler", "QueryCompiler"),
    "ExplainReport": ("explain", "ExplainReport"),
    "LEVEL_PASSES": ("passes", "LEVEL_PASSES"),
    "applies_trivial": ("passes", "applies_trivial"),
}

__all__ = [
    "ColumnStats",
    "CompiledQuery",
    "ClusterCatalog",
    "ConversionCensus",
    "PartitionInfo",
    "PassRecord",
    "PlanEstimate",
    "QueryAnalysis",
    "RefreshPolicy",
    "SemanticFacts",
    "ShardabilityAnalyzer",
    "StatisticsCatalog",
    "StreamInfo",
    "TablePrefilter",
    "TableStats",
    "TypeChecker",
    "UDFSignature",
    "check_parameter_values",
    "collect_table_stats",
    "conversion_census",
    "schema_proven_not_null",
    "derive_pull_columns",
    "derive_table_prefilters",
    "estimate_select",
    "merge_catalogs",
    "predicate_selectivity",
    *sorted(_LAZY_EXPORTS),
]


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module_name}", __name__), attribute)
    globals()[name] = value
    return value
