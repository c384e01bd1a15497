"""MTSQL-specific query optimizations (§4 of the paper).

The §4.2 optimizations are one class each — :class:`PushUpOptimizer`,
:class:`AggregationDistributionOptimizer` and :class:`InliningOptimizer` —
run on a canonically rewritten query by the staged compiler.  Which of them
a level runs is declared once, in :data:`repro.compile.passes.LEVEL_PASSES`.
The *trivial semantic optimizations* (o1) are not a pass: they are expressed
as :class:`~repro.core.rewrite.context.RewriteOptions` computed from C and D
before the canonical rewrite runs.
"""

from __future__ import annotations

from .distribution import AggregationDistributionOptimizer
from .inlining import InliningOptimizer
from .levels import ALL_LEVELS, OptimizationLevel
from .patterns import find_wraps, match_from_wrap, match_full_wrap, match_to_wrap
from .pushup import PushUpOptimizer

__all__ = [
    "OptimizationLevel",
    "ALL_LEVELS",
    "PushUpOptimizer",
    "AggregationDistributionOptimizer",
    "InliningOptimizer",
    "find_wraps",
    "match_full_wrap",
    "match_from_wrap",
    "match_to_wrap",
]
