"""Engine execution configuration: batch size and the typed-kernel knob.

Expression trees compile once per plan into *batch kernels* operating on
column arrays (:mod:`repro.engine.vector`); scans, filters, joins,
projections, aggregation and DML process
:class:`~repro.engine.vector.RowBatch` windows of ``batch_size`` rows at a
time.  The batch size is not a deployment setting: it is
:data:`DEFAULT_BATCH_SIZE` unless a test builds its :class:`VectorConfig`
with a smaller one to cross batch boundaries.

Deployments configure through environment variables with the same strictness
as the ``REPRO_SERVER_*`` / ``REPRO_BENCH_*`` families: a malformed value
raises :class:`~repro.errors.ConfigurationError` instead of being silently
replaced by a default, because a typo must not quietly run the engine in the
wrong mode.

+----------------------------+---------------------------------------------+
| variable                   | meaning                                     |
+============================+=============================================+
| ``REPRO_ENGINE_TYPED``     | ``1`` = typed-column kernel specialization  |
|                            | (default), ``0`` = generic kernels only     |
+----------------------------+---------------------------------------------+

``REPRO_ENGINE_TYPED`` gates whether batch kernels may specialize over
:class:`~repro.engine.columns.TypedColumn` payloads where a base-table
column is provably type-stable.  With the knob off the engine runs exactly
the generic object-list kernels, the reference leg of the typed-vs-generic
differential.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import ConfigurationError

DEFAULT_BATCH_SIZE = 1024


def env_typed(default: bool = True) -> bool:
    """Typed-kernel override via ``REPRO_ENGINE_TYPED`` (``0`` or ``1``).

    Anything other than the two literal flags is a configuration error — a
    differential leg that silently fell back to the default would compare
    an engine against itself.
    """
    value = os.environ.get("REPRO_ENGINE_TYPED", "").strip()
    if not value:
        return default
    if value == "1":
        return True
    if value == "0":
        return False
    raise ConfigurationError(
        f"the REPRO_ENGINE_TYPED environment variable must be '0' or '1' "
        f"(got {value!r})"
    )


@dataclass(frozen=True)
class VectorConfig:
    """The engine's execution tunables (see the module docstring)."""

    batch_size: int = DEFAULT_BATCH_SIZE
    typed: bool = True

    @classmethod
    def from_env(cls, **overrides) -> "VectorConfig":
        """Build a config from the ``REPRO_ENGINE_*`` environment knobs.

        Keyword ``overrides`` win over the environment (the constructor-arg
        escape hatch for tests and embedded engines).
        """
        values = {"typed": env_typed()}
        values.update(overrides)
        return cls(**values)
