"""The compiler's per-level pass lists (Table 6 of the paper).

The paper's Table 6 assigns each optimization level a set of post-rewrite
passes.  That mapping is one declarative table, :data:`LEVEL_PASSES`,
consumed by the staged compiler (:mod:`repro.compile.compiler`).  Each entry
is an optimizer class of :mod:`repro.core.optimizer`: the compiler builds a
fresh one per compilation from the rewrite context, runs its
``apply(query)``, and records the pass under the class's ``name`` with the
optimizer's ``fired`` rule count
(:class:`~repro.compile.artifact.PassRecord`).  A new optimization plugs in
by adding such a class and naming it in :data:`LEVEL_PASSES`.

The *trivial semantic optimizations* (§4.1, level o1) are intentionally not a
pass: they are :class:`~repro.core.rewrite.context.RewriteOptions` flags that
switch parts of the canonical rewrite off — see :func:`applies_trivial`.
"""

from __future__ import annotations

from ..core.optimizer.distribution import AggregationDistributionOptimizer
from ..core.optimizer.inlining import InliningOptimizer
from ..core.optimizer.levels import OptimizationLevel
from ..core.optimizer.pushup import PushUpOptimizer

#: Table 6: the post-rewrite passes each optimization level runs, in order.
LEVEL_PASSES: dict[OptimizationLevel, tuple[type, ...]] = {
    OptimizationLevel.CANONICAL: (),
    OptimizationLevel.O1: (),
    OptimizationLevel.O2: (PushUpOptimizer,),
    OptimizationLevel.O3: (PushUpOptimizer, AggregationDistributionOptimizer),
    OptimizationLevel.O4: (
        PushUpOptimizer,
        AggregationDistributionOptimizer,
        InliningOptimizer,
    ),
    OptimizationLevel.INL_ONLY: (InliningOptimizer,),
}


def applies_trivial(level: OptimizationLevel) -> bool:
    """Whether ``level`` enables the §4.1 trivial semantic optimizations.

    Every level except the bare canonical rewrite does; the flags themselves
    are computed from C and D by
    :meth:`~repro.core.rewrite.context.RewriteOptions.trivially_optimized`.
    """
    return level is not OptimizationLevel.CANONICAL
