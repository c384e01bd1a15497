"""``MTConnection.explain()``: render a compilation as a pass-by-pass report.

The report is the user-facing window into the staged compiler: one line per
stage with wall time, AST size delta and fired-rule count, the
conversion-call census, and the SQL text after every stage —
rendered in a chosen :class:`~repro.sql.dialect.Dialect` so the printout
matches what the connection's backend would receive.  With
``MTConnection.explain(..., analyze=True)`` the report additionally carries
the executed statement's per-operator profile (batch counts, rows per
batch, wall time), so compile-side and execution-side cost sit in one
printout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..result import OperatorProfile
from ..sql.dialect import DEFAULT_DIALECT, Dialect
from ..sql.printer import to_sql
from .artifact import CompiledQuery
from .cost import PlanEstimate


@dataclass
class ExplainReport:
    """A compiled statement plus the dialect its SQL snapshots print in.

    ``operators`` is ``None`` for a compile-only report; an ``analyze`` run
    fills it with the statement's per-operator execution profile delta
    (which may legitimately be empty — e.g. a backend that does not record
    operator profiles).

    ``estimate`` is the cost model's estimated plan tree for the rewritten
    statement (``None`` when the backend exposes no statistics).  An
    ``analyze`` run also records ``actual_rows``, the executed statement's
    result cardinality, so the root estimate can be judged against reality.
    """

    compiled: CompiledQuery
    dialect: Optional[Dialect] = None
    operators: Optional[list[OperatorProfile]] = None
    estimate: Optional[PlanEstimate] = None
    actual_rows: Optional[int] = None

    @property
    def q_error(self) -> Optional[float]:
        """The root cardinality Q-error: max(est, actual) / min(est, actual).

        ``None`` without both an estimate and an analyzed run; estimates and
        actuals are floored at one row, the usual Q-error convention.
        """
        if self.estimate is None or self.actual_rows is None:
            return None
        estimated = max(self.estimate.rows, 1.0)
        actual = max(float(self.actual_rows), 1.0)
        return max(estimated, actual) / min(estimated, actual)

    # -- convenience accessors -------------------------------------------------

    @property
    def pass_trace(self) -> tuple[str, ...]:
        """The stage names that ran, in order."""
        return self.compiled.pass_trace

    def sql(self) -> str:
        """The final rewritten SQL in the report's dialect."""
        return to_sql(self.compiled.rewritten, self.dialect)

    # -- rendering -------------------------------------------------------------

    def render(self, include_sql: bool = True) -> str:
        """The full multi-line report (optionally without the SQL snapshots)."""
        compiled = self.compiled
        dialect = self.dialect if self.dialect is not None else DEFAULT_DIALECT
        lines = [
            (
                f"MTSQL compilation: client={compiled.client} "
                f"D'={list(compiled.dataset)} level={compiled.level.value} "
                f"dialect={dialect.name}"
            ),
            f"statement: {to_sql(compiled.statement, self.dialect)}",
            "",
            f"{'stage':<14}{'time':>12}{'nodes':>8}{'delta':>8}{'fired':>8}",
        ]
        for record in compiled.passes:
            lines.append(
                f"{record.name:<14}{record.seconds * 1000.0:>10.3f}ms"
                f"{record.nodes_after:>8}{record.node_delta:>+8}{record.fired:>8}"
            )
        lines.append(
            f"{'total':<14}{compiled.seconds * 1000.0:>10.3f}ms"
            f"{compiled.passes[-1].nodes_after:>8}"
            f"{compiled.passes[-1].nodes_after - compiled.passes[0].nodes_before:>+8}"
            f"{sum(record.fired for record in compiled.passes[1:]):>8}"
        )
        lines.append("")
        lines.append(
            "conversion calls: "
            f"canonical={compiled.conversions.canonical_total} "
            f"final={compiled.conversions.final_total} "
            f"({_census_text(compiled.conversions.final)})"
        )
        if self.estimate is not None:
            lines.append("")
            lines.append("cost estimate (rewritten statement):")
            lines.extend(f"  {line}" for line in self.estimate.lines())
            if self.actual_rows is not None:
                lines.append(
                    f"  rows: estimated≈{self.estimate.rows:.0f} "
                    f"actual={self.actual_rows} q-error={self.q_error:.2f}"
                )
        if self.operators is not None:
            lines.append("")
            lines.append("execution profile (one analyzed run):")
            if self.operators:
                for profile in self.operators:
                    lines.append(f"  {profile.describe()}")
            else:
                lines.append("  (backend recorded no operator profiles)")
        if include_sql:
            for record in compiled.passes:
                lines.append("")
                lines.append(f"-- after {record.name}")
                lines.append(to_sql(record.snapshot, self.dialect))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _census_text(census: dict[str, int]) -> str:
    if not census:
        return "none"
    return ", ".join(f"{name}×{count}" for name, count in sorted(census.items()))
