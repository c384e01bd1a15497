"""The staged MTSQL→SQL query compiler.

:class:`QueryCompiler` is the one place the middleware turns an MTSQL SELECT
into executable SQL.  It runs an explicit pipeline —

1. **context** — build the :class:`~repro.core.rewrite.context.RewriteContext`
   for ``(C, D', level)``; every level except ``canonical`` computes the
   §4.1 trivial-optimization flags here,
2. **canonical** — the Algorithm-1 rewrite
   (:class:`~repro.core.rewrite.canonical.CanonicalRewriter`),
3. **passes** — the level's optimizers in :data:`~repro.compile.passes.
   LEVEL_PASSES` order (push-up, distribution, inlining) —

and records per-stage wall time, AST node-count deltas, fired-rule counts and
AST snapshots into the returned
:class:`~repro.compile.artifact.CompiledQuery`.  Consumers never re-derive
any of this: the client executes the artifact, the gateway caches it, a
sharded backend memoizes its cluster plan on it.  Every compile first runs
the prepare-time :class:`~repro.compile.typecheck.TypeChecker`, so every
artifact carries the :class:`~repro.compile.typecheck.SemanticFacts` it
proved over the rewritten statement.  Shardability is not a compile stage:
only a cluster plans, so the cluster planner analyses the rewritten
statement against its own DDL-derived catalog.

``stats.compilations`` counts every pipeline run — the acceptance tests use
it to prove each statement is compiled exactly once end-to-end (and not at
all on a warm gateway cache hit).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from ..core.rewrite.canonical import CanonicalRewriter
from ..core.rewrite.context import RewriteContext, RewriteOptions
from ..sql import ast
from ..sql.params import statement_parameters
from ..sql.transform import count_nodes
from .artifact import CompiledQuery, ConversionCensus, PassRecord, conversion_census
from .passes import LEVEL_PASSES, applies_trivial
from .typecheck import TypeChecker
from ..core.optimizer.levels import OptimizationLevel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.middleware import MTBase


@dataclass
class CompilerStats:
    """Pipeline counters, read by tests and the benchmark harness."""

    #: full pipeline runs (one per compiled statement)
    compilations: int = 0
    #: total wall time spent compiling
    seconds: float = 0.0

    def snapshot(self) -> "CompilerStats":
        """A defensive copy of the counters."""
        return replace(self)

    def reset(self) -> None:
        """Zero the counters (between benchmark runs)."""
        self.compilations = 0
        self.seconds = 0.0


class QueryCompiler:
    """The middleware's staged compiler: one instance per :class:`MTBase`."""

    def __init__(self, middleware: "MTBase") -> None:
        self.middleware = middleware
        self.stats = CompilerStats()
        self._lock = threading.Lock()

    # -- context ---------------------------------------------------------------

    def rewrite_context(
        self,
        client: int,
        dataset: Sequence[int],
        level: OptimizationLevel,
        force_canonical: bool = False,
    ) -> RewriteContext:
        """The rewrite context for one ``(C, D', level)`` combination.

        ``force_canonical`` disables the trivial-optimization flags even for
        optimizing levels — the DML rewrite requires the canonical form.
        """
        all_tenants = self.middleware.tenants()
        if applies_trivial(level) and not force_canonical:
            options = RewriteOptions.trivially_optimized(client, dataset, all_tenants)
        else:
            options = RewriteOptions.canonical()
        return RewriteContext(
            client=client,
            dataset=tuple(dataset),
            schema=self.middleware.schema,
            conversions=self.middleware.conversions,
            options=options,
            all_tenants=all_tenants,
        )

    # -- compilation -----------------------------------------------------------

    def compile(
        self,
        query: ast.Select,
        client: int,
        dataset: Sequence[int],
        level: OptimizationLevel,
        tables: Sequence[str] = (),
    ) -> CompiledQuery:
        """Run the full pipeline on one SELECT and return its artifact.

        ``dataset`` must already be resolved and privilege-pruned (it is
        ``D'``); ``tables`` are the tenant-specific tables the caller walked
        for pruning, recorded on the artifact for cache consumers.
        """
        started = time.perf_counter()
        parameters = statement_parameters(query)
        # the static analyzer rejects ill-typed statements here — at prepare
        # time, before the rewrite or any backend runs — and the walk's
        # findings become the artifact's SemanticFacts below
        checker = TypeChecker(
            self.middleware.schema,
            udf_signatures=self.middleware.udf_signatures,
        )
        checker.check(query)
        context = self.rewrite_context(client, dataset, level)
        records: list[PassRecord] = []

        nodes_before = count_nodes(query)
        stage_started = time.perf_counter()
        canonical = CanonicalRewriter(context).rewrite_query(query)
        stage_seconds = time.perf_counter() - stage_started
        census_canonical = conversion_census(canonical, self.middleware.conversions)
        # snapshots hold the stage outputs by reference: the pipeline treats
        # ASTs as immutable (passes rebuild, never mutate), so no copies are
        # paid on the hot path — explain() renders, snapshot_after() copies
        records.append(
            PassRecord(
                name="canonical",
                seconds=stage_seconds,
                nodes_before=nodes_before,
                nodes_after=count_nodes(canonical),
                fired=sum(census_canonical.values()),
                snapshot=canonical,
            )
        )

        current = canonical
        for optimizer_class in LEVEL_PASSES[level]:
            nodes_in = records[-1].nodes_after
            stage_started = time.perf_counter()
            # a fresh optimizer per compilation: it counts its fired rules
            optimizer = optimizer_class(context)
            current = optimizer.apply(current)
            stage_seconds = time.perf_counter() - stage_started
            records.append(
                PassRecord(
                    name=optimizer.name,
                    seconds=stage_seconds,
                    nodes_before=nodes_in,
                    nodes_after=count_nodes(current),
                    fired=optimizer.fired,
                    snapshot=current,
                )
            )

        # provenance/nullability facts over the *rewritten* statement: the
        # cluster planner's shardability walk reuses the column-owner map
        # instead of its any-binding heuristic, the cost model the
        # proven-NOT-NULL sets
        facts = checker.facts(current)
        census_final = (
            census_canonical
            if current is canonical  # pass-less levels: nothing changed
            else conversion_census(current, self.middleware.conversions)
        )
        seconds = time.perf_counter() - started
        with self._lock:
            self.stats.compilations += 1
            self.stats.seconds += seconds
        return CompiledQuery(
            statement=query,
            canonical=canonical,
            rewritten=current,
            client=client,
            dataset=tuple(dataset),
            level=level,
            tables=tuple(tables),
            parameters=parameters,
            passes=tuple(records),
            conversions=ConversionCensus(
                canonical=census_canonical, final=census_final
            ),
            seconds=seconds,
            facts=facts,
        )

    # -- maintenance -----------------------------------------------------------

    def reset_stats(self) -> None:
        """Zero the compilation counters (between benchmark runs)."""
        with self._lock:
            self.stats.reset()
