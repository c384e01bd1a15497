"""repro — a reproduction of *MTBase: Optimizing Cross-Tenant Database Queries*.

The package is organized in layers (see ``docs/architecture.md``):

* :mod:`repro.sql`      — SQL/MTSQL lexer, parser, AST and dialect-aware
  printer, plus the per-shard query/merge-plan splits,
* :mod:`repro.engine`   — an in-memory SQL engine (the simulated back-end DBMS),
* :mod:`repro.core`     — MTSQL semantics: conversion functions, scopes,
  privileges, the canonical rewrite algorithm, the optimizer and the MTBase
  middleware/client,
* :mod:`repro.compile`  — the staged MTSQL→SQL compilation pipeline: pass
  registry, per-level pass lists, the ``CompiledQuery`` artifact and
  ``explain()``,
* :mod:`repro.backends` — the execution-backend protocol with engine, SQLite
  and sharded-cluster implementations,
* :mod:`repro.cluster`  — tenant placement, the distributed query planner and
  the scatter-gather coordinator behind the sharded backend,
* :mod:`repro.gateway`  — the caching, concurrent multi-tenant serving layer,
* :mod:`repro.api`      — the PEP 249 (DB-API 2.0) driver surface: ``connect``
  → ``Connection`` → ``Cursor`` with bind parameters and streaming fetch,
* :mod:`repro.mth`      — the MT-H benchmark (schema, data generator, queries);
  ``tools/probe_mth_queries.py`` and ``benchmarks/`` run the paper's experiments.
"""

from .engine import Database
from .result import QueryResult

__version__ = "1.0.0"

__all__ = ["Database", "QueryResult", "__version__"]
