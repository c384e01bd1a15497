"""The traced run: where one statement's time goes, layer by layer.

End-to-end metrics are measured with tracing off (:mod:`perf.harness`).  This
separate run uses the same seed and the same generated statements and
produces the per-layer metrics of ``BENCHMARK.json``:

1. one set-up, with spans around the backend's ``insert_rows`` and
   ``collect_statistics``;
2. a **served** phase over TCP, untraced — per-template medians, the
   gateway-cache and admission counters, HELLO and FETCH round trips;
3. an **in-process replay** that continues the same scripts through
   ``repro.api.connect(gateway, ...)`` on one thread and replays the wire
   codec (``server.protocol``) on the actual requests and replies — first
   with tracing off, then with :class:`perf.spans.Tracer` wrappers around the
   layers' public entry points.  The difference in throughput is the tracing
   overhead; served minus replay is what sockets, the event loop, thread
   hand-offs and admission add;
4. a traced **cold** replay (cache invalidated before every cycle) for the
   parse / compile / plan costs on the critical path of a first execution;
5. a **census pass** — every SELECT template once, warm — over which the
   counters the layers already expose are read, so that counts repeat
   exactly from run to run;
6. direct calls of a few public functions: ``MTConnection.compile`` (stage
   times off ``CompiledQuery.passes``), ``MTConnection.query`` (no gateway),
   the plain-TPC-H baseline for the paper's MT-overhead ratio, and a
   read-after-write probe.

Span self times are reported in ms *per replayed statement*, so the warm
numbers of one workload add up to ``bench.stmt_inprocess_ms``.
"""

from __future__ import annotations

import dataclasses
import gc
import importlib
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns
from typing import Optional

import repro.api
from repro.errors import ReproError
from repro.mth import ALL_QUERY_IDS, load_tpch_baseline, query_text
from repro.server import protocol

from . import harness, stats
from .harness import OPTIMIZATION, Record, Stack
from .spans import Tracer, covered, totals_by_name
from .workloads import PAGE, RW_SQL, SHORT_SQL, Op, Scale, Workload

#: shares of ``--seconds``: served, untraced replay, traced replay, cold replay
SERVED, UNTRACED, TRACED, COLD = 0.40, 0.20, 0.25, 0.15
#: the traced run generates this many times the statements ``--seconds`` needs
SCRIPT_SURPLUS = 5

#: (module, class or None, public attribute, span name)
WRAP_POINTS = (
    ("repro.gateway.session", "GatewaySession", "prepare", "gateway.prepare"),
    ("repro.gateway.session", "GatewaySession", "execute_incremental", "gateway.execute"),
    ("repro.gateway.session", None, "fingerprint_statement", "gateway.fingerprint"),
    ("repro.gateway.session", None, "parse_submitted_statement", "sql.parse"),
    ("repro.core.client", "MTConnection", "compile_resolved", "compile.query"),
    ("repro.core.client", "MTConnection", "execute", "core.execute"),
    ("repro.cluster.planner", "ClusterPlanner", "plan", "cluster.plan"),
    ("repro.result", "RowStream", "fetchmany", "backends.stream_fetch"),
    ("repro.backends.sqlite", None, "to_sql", "sql.print"),
)
BACKEND_METHODS = ("execute", "execute_scoped", "execute_stream", "query")
COMPILE_STAGES = ("canonical", "pushup", "distribution", "inlining")
OPERATORS = ("scan_join", "aggregate", "filter", "project", "distinct", "order")
PLAN_KINDS = {
    "SingleShardPlan": "single_shard",
    "RowStreamPlan": "row_stream",
    "PartialAggregatePlan": "partial_aggregate",
    "FederatedPlan": "federated",
}


class NullTracer:
    """The replay's tracer when tracing is off: every span is a no-op."""

    _off = nullcontext()

    def span(self, name):
        return self._off

    def statement(self, statement_id, name="stmt"):
        return self._off


def backend_connections(backend) -> list:
    """The physical connections behind a backend (the shards of a cluster)."""
    return list(getattr(backend, "shard_connections", None) or [backend])


@contextmanager
def installed(tracer: Tracer, backend):
    """Wrap the layers' public entry points (see :data:`WRAP_POINTS`) for the
    duration of the block."""
    for module_name, class_name, attribute, span in WRAP_POINTS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attribute, span)
    clustered = hasattr(backend, "shard_connections")
    for cls, span in {
        **{type(shard): "backends.execute" for shard in backend_connections(backend)},
        **({type(backend): "cluster.execute"} if clustered else {}),
    }.items():
        for method in BACKEND_METHODS:
            tracer.wrap(cls, method, span)
    try:
        yield
    finally:
        tracer.unwrap_all()


# -- the in-process replay -------------------------------------------------------


class Replay:
    """Plays units through the in-process public client on one thread."""

    def __init__(self, stack: Stack, tracer) -> None:
        self.stack = stack
        self.tracer = tracer
        self.records: list[Record] = []
        self.executed: list = []
        self.reply_bytes = 0
        self.wall_ns = 0
        self._connections: dict = {}
        self._ids = 0

    def _cursor(self, tenant: int, scope: Optional[str]):
        key = (tenant, scope)
        if key not in self._connections:
            connection = repro.api.connect(
                self.stack.gateway, client=tenant, optimization=OPTIMIZATION, scope=scope
            )
            self._connections[key] = (connection, connection.cursor())
        return self._connections[key][1]

    def close(self) -> None:
        for connection, _cursor in self._connections.values():
            connection.close()
        self._connections.clear()

    def statement(self, cursor, op: Op):
        """One statement the way the server handles it, minus the transport."""
        span = self.tracer.span
        with span("server.request_codec"):
            frame = protocol.encode_frame({
                "op": "execute", "statement": 1, "scope": None,
                "parameters": protocol.encode_parameters(op.params),
            })
            protocol.decode_parameters(protocol.decode_payload(frame[4:]).get("parameters"))
        with span("api.cursor"):
            cursor.execute(op.sql, op.params)
        if op.fetch == "none":
            with span("server.reply_encode"):
                frame = protocol.encode_frame(
                    {"ok": True, "kind": "statement", "rowcount": cursor.rowcount}
                )
            self.reply_bytes += len(frame)
            return cursor.rowcount
        rows: list = []
        while True:
            with span("api.cursor"):
                page = cursor.fetchmany(PAGE)
            with span("server.reply_encode"):
                frame = protocol.encode_frame(
                    {"ok": True, "rows": protocol.encode_rows(page), "eof": len(page) < PAGE}
                )
            self.reply_bytes += len(frame)
            with span("server.reply_decode"):
                protocol.decode_rows(protocol.decode_payload(frame[4:])["rows"])
            rows.extend(page)
            if len(page) < PAGE:
                return rows if op.keep_rows else len(rows)

    def unit(self, unit) -> None:
        cursor = self._cursor(unit.tenant, unit.scope)
        for op in unit.ops:
            self._ids += 1
            began = perf_counter_ns()
            with self.tracer.statement(self._ids):
                try:
                    observed = self.statement(cursor, op)
                except ReproError as exc:
                    observed = exc
            self.records.append(Record(unit.tenant, op, perf_counter_ns() - began, observed))
        if unit.visit:  # a visit's session ends with it, like its connection would
            self._connections.pop((unit.tenant, unit.scope))[0].close()
        self.executed.append(unit)

    def play(self, units, budget_ns: Optional[int] = None) -> "Replay":
        """Play ``units`` (until the next would overrun ``budget_ns``)."""
        gc.collect()
        began = perf_counter_ns()
        for unit in harness.budgeted(units, budget_ns):
            self.unit(unit)
        self.wall_ns = perf_counter_ns() - began
        self.close()
        return self

    @property
    def per_second(self) -> float:
        return len(self.records) / (self.wall_ns / 1e9) if self.wall_ns else 0.0


# -- counters the layers already expose -----------------------------------------


def execution_counters(backend) -> dict:
    """UDF, kernel and operator tallies summed over the physical connections."""
    totals = {"udf_calls": 0, "udf_cache_hits": 0, "typed": 0, "generic": 0, "proven": 0}
    operators: dict[str, float] = {}
    for connection in backend_connections(backend):
        counters = connection.stats
        totals["udf_calls"] += counters.udf_calls
        totals["udf_cache_hits"] += counters.udf_cache_hits
        typed, generic, proven = counters.kernels.snapshot()
        totals["typed"] += typed
        totals["generic"] += generic
        totals["proven"] += proven
        for profile in counters.operator_snapshot():
            name = "".join(c if c.isalnum() else "_" for c in profile.operator)
            operators[name] = operators.get(name, 0.0) + profile.seconds
    totals["operators"] = operators
    return totals


def cluster_counters(backend) -> dict:
    return {
        name: getattr(backend, name, 0)
        for name in ("rows_pulled", "cells_pulled", "plan_reuses")
    }


def census(stack: Stack, units: list) -> dict:
    """Every SELECT template once, warm, in-process: counts that repeat exactly."""
    backend = stack.instance.backend
    before, pulls = execution_counters(backend), cluster_counters(backend)
    plans = dict.fromkeys(PLAN_KINDS.values(), 0)
    replay = Replay(stack, NullTracer())
    for unit in units:
        for op in unit.ops:  # one statement at a time, to read last_plan after each
            replay.unit(dataclasses.replace(unit, ops=(op,)))
            kind = PLAN_KINDS.get(type(getattr(backend, "last_plan", None)).__name__)
            if kind is not None:
                plans[kind] += 1
    replay.close()
    after, pulled = execution_counters(backend), cluster_counters(backend)
    statements = len(replay.records)
    metrics = {
        "server.reply_bytes": replay.reply_bytes,
        "backends.udf_calls": after["udf_calls"] - before["udf_calls"],
        "backends.udf_cache_hit_rate": (
            (after["udf_cache_hits"] - before["udf_cache_hits"])
            / max(1, after["udf_calls"] - before["udf_calls"])
        ),
        "engine.kernels_proven": after["proven"] - before["proven"],
        "engine.kernels_typed": after["typed"] - before["typed"],
        "engine.kernels_generic": after["generic"] - before["generic"],
        "cluster.rows_pulled": pulled["rows_pulled"] - pulls["rows_pulled"],
        "cluster.cells_pulled": pulled["cells_pulled"] - pulls["cells_pulled"],
        "cluster.plan_reuse_rate": (pulled["plan_reuses"] - pulls["plan_reuses"]) / statements,
    }
    for kind, count in plans.items():
        metrics[f"cluster.plans.{kind}"] = count
    other = 0.0
    for name, seconds in after["operators"].items():
        delta = (seconds - before["operators"].get(name, 0.0)) * 1e3
        if name in OPERATORS:
            metrics[f"engine.operator.{name}_ms"] = delta
        else:
            other += delta
    for name in OPERATORS:
        metrics.setdefault(f"engine.operator.{name}_ms", 0.0)
    metrics["engine.operator.other_ms"] = other
    return {"metrics": metrics, "records": replay.records}


# -- direct calls of public functions ----------------------------------------------


def direct_ops(stack: Stack, units: list):
    """``(MTConnection, op)`` for every op: direct connections, no gateway."""
    for unit in units:
        connection = stack.instance.middleware.connect(unit.tenant, optimization=OPTIMIZATION)
        if unit.scope is not None:
            connection.set_scope(unit.scope)
        for op in unit.ops:
            yield connection, op


def compile_metrics(stack: Stack, units: list) -> dict:
    """``MTConnection.compile`` per SELECT template; stages off ``.passes``."""
    walls, nodes, conversions = [], 0, 0
    stages = dict.fromkeys((*COMPILE_STAGES, "other"), 0.0)
    for connection, op in direct_ops(stack, units):
        began = perf_counter_ns()
        compiled = connection.compile(op.sql)
        walls.append((perf_counter_ns() - began) / 1e6)
        for record in compiled.passes:
            stage = record.name if record.name in COMPILE_STAGES else "other"
            stages[stage] += record.seconds * 1e3
        nodes += compiled.passes[-1].nodes_after if compiled.passes else 0
        conversions += compiled.conversions.final_total
    metrics = {
        "compile.total_ms": sum(walls) / len(walls),
        "compile.nodes_final": nodes,
        "compile.conversions_final": conversions,
    }
    for stage, total in stages.items():
        metrics[f"compile.stage.{stage}_ms"] = total / len(walls)
    return metrics


def core_query_ms(stack: Stack, units: list) -> float:
    """``MTConnection.query`` per SELECT template: the pipeline with no gateway."""
    walls = []
    for connection, op in direct_ops(stack, units):
        began = perf_counter_ns()
        connection.query(op.sql, parameters=op.params)
        walls.append((perf_counter_ns() - began) / 1e6)
    return sum(walls) / len(walls)


def mt_overhead_ratio(stack: Stack) -> float:
    """The paper's headline: geomean over the 22 queries of warm MT-H (C = 1,
    D = all, o4, through the gateway's cache) over plain TPC-H on the same
    data in a single engine."""
    baseline = load_tpch_baseline(data=stack.instance.data, backend="engine")
    session = stack.gateway.session(1, optimization=OPTIMIZATION, scope="IN ()")
    ratios = []
    try:
        for query_id in ALL_QUERY_IDS:
            text = query_text(query_id)
            timings = []
            for run in (baseline.query, session.query):
                run(text)  # warm
                began = perf_counter_ns()
                run(text)
                timings.append(perf_counter_ns() - began)
            ratios.append(timings[1] / timings[0])
    finally:
        session.close()
        baseline.close()
    return stats.geomean(ratios)


def read_after_write_ms(stack: Stack, tenant: int = 2) -> float:
    """First own-tenant Q6 after a one-row lineitem INSERT, minus steady Q6."""
    connection = repro.api.connect(stack.gateway, client=tenant, optimization=OPTIMIZATION)
    cursor = connection.cursor()
    params = (0.05, 0.07, 24)
    instance = stack.instance
    owner = dict(zip((row[0] for row in instance.data.customer), instance.customer_tenants))
    order = next(row[0] for row in instance.data.orders if owner[row[1]] == tenant)
    day = repro.api.Date(1996, 1, 1)

    def q6() -> float:
        began = perf_counter_ns()
        cursor.execute(SHORT_SQL["q6"], params)
        cursor.fetchall()
        return (perf_counter_ns() - began) / 1e6

    try:
        q6()
        steady = stats.median([q6() for _ in range(5)])
        after = []
        for _ in range(5):
            cursor.execute(RW_SQL["insert_line"], (
                order, 1, 1, 99, 50.0, 1.0, 0.05, 0.02, "N", "O", day, day, day,
                "NONE", "MAIL", "perf-raw",
            ))
            after.append(q6())
        cursor.execute("DELETE FROM lineitem WHERE l_linenumber = ?", (99,))
    finally:
        connection.close()
    return stats.median(after) - steady


def served_probes(stack: Stack) -> dict:
    """HELLO and one-page FETCH round trips over TCP."""
    hello = []
    for _ in range(10):
        began = perf_counter_ns()
        connection = stack.connect(1, None)
        hello.append((perf_counter_ns() - began) / 1e6)
        connection.close()
    pages = []
    connection = stack.connect(1, None)
    try:
        cursor = connection.cursor()
        for _ in range(5):
            cursor.execute("SELECT * FROM orders")
            while True:
                began = perf_counter_ns()
                page = cursor.fetchmany(PAGE)
                if len(page) < PAGE:
                    break
                pages.append((perf_counter_ns() - began) / 1e6)
    finally:
        connection.close()
    return {
        "server.hello_ms": stats.median(hello),
        "server.fetch_page_ms": stats.median(pages) if pages else 0.0,
    }


# -- span arithmetic ------------------------------------------------------------------


def layer_budget(spans: list, statements: int) -> dict:
    """Self time per layer in ms per statement, from one replay's spans."""
    self_ns, inclusive_ns, _calls = totals_by_name(spans)

    def per_statement(*names) -> float:
        return sum(self_ns.get(name, 0) for name in names) / statements / 1e6

    root = inclusive_ns.get("stmt", 0)
    return {
        "bench.stmt_inprocess_ms": root / statements / 1e6,
        "bench.harness_self_ms": per_statement("stmt"),
        "api.cursor_self_ms": per_statement("api.cursor"),
        "gateway.self_ms": per_statement("gateway.prepare", "gateway.execute"),
        "gateway.fingerprint_ms": per_statement("gateway.fingerprint"),
        "sql.parse_ms": per_statement("sql.parse"),
        "sql.print_ms": per_statement("sql.print"),
        "compile.query_ms": per_statement("compile.query"),
        "core.dml_self_ms": per_statement("core.execute"),
        "cluster.gather_overhead_ms": per_statement("cluster.execute"),
        "cluster.plan_ms": per_statement("cluster.plan"),
        "backends.execute_ms": per_statement("backends.execute", "backends.stream_fetch"),
        "server.request_codec_ms": per_statement("server.request_codec"),
        "server.reply_encode_ms": per_statement("server.reply_encode"),
        "server.reply_decode_ms": per_statement("server.reply_decode"),
    }


def shard_execute(spans: list, statements: int) -> dict:
    """Sum and per-statement maximum of the outermost per-shard backend spans."""
    names = {record[0]: record[1] for record in spans}
    per_statement: dict = {}
    for span_id, name, parent, statement, start, end in spans:
        if name.startswith("backends.") and not names.get(parent, "").startswith("backends."):
            per_statement.setdefault(statement, []).append(end - start)
    return {
        "cluster.shard_execute_sum_ms": sum(map(sum, per_statement.values())) / statements / 1e6,
        "cluster.shard_execute_max_ms": sum(map(max, per_statement.values())) / statements / 1e6,
    }


def union_seconds(spans: list, name: str) -> float:
    """Wall seconds during which at least one span named ``name`` was open
    (nested and parallel per-shard calls are counted once)."""
    intervals = [(r[4], r[5]) for r in spans if r[1] == name]
    if not intervals:
        return 0.0
    low = min(start for start, _ in intervals)
    high = max(end for _, end in intervals)
    return covered(low, high, intervals) / 1e9


# -- the run ------------------------------------------------------------------------


def traced_run(workload: Workload, scale: Scale, seed: int, seconds: float, trace_path) -> dict:
    """Everything in the module docstring; returns the report of ``run.py``."""
    tracer = Tracer()
    metrics: dict = {}
    canary = harness.Canary()

    # 1. one set-up, spans around the bulk-load calls
    from repro.backends import EngineConnection, ShardedConnection, SQLiteConnection

    # only the classes the workload's instance is made of: the oracle's own
    # sqlite baseline (mth22-*) must not be counted as the program's load
    loaders = [SQLiteConnection if workload.backend == "sqlite" else EngineConnection]
    if workload.shards:
        loaders.append(ShardedConnection)
    for cls in loaders:
        tracer.wrap(cls, "insert_rows", "backends.insert_rows")
        tracer.wrap(cls, "collect_statistics", "backends.collect_statistics")
    try:
        stack = harness.build_stack(workload, scale)
    finally:
        tracer.unwrap_all()
    setup_spans, tracer.spans = tracer.spans, []
    try:
        oracle = stack.oracle
        backend = stack.instance.backend
        loaded = sum(stack.instance.data.row_counts().values())
        metrics.update({
            name: stack.timings[name]
            for name in ("mth.generate_s", "mth.load_s", "server.start_s", "bench.warmup_s")
        })
        metrics["mth.collect_statistics_s"] = union_seconds(
            setup_spans, "backends.collect_statistics"
        )
        metrics["backends.load_rows_per_s"] = loaded / union_seconds(
            setup_spans, "backends.insert_rows"
        )

        # the same statements as the untraced run, and more of them: the
        # in-process replay consumes a script several times faster than TCP
        scripts = [
            workload.script(stack.instance, oracle, seed, seconds * SCRIPT_SURPLUS, thread)
            for thread in range(workload.threads)
        ]
        cold_units = workload.cold(stack.instance, oracle)

        # 2. served, untraced
        cache_before = stack.gateway.cache_stats
        served = harness.steady_phase(stack, scripts, seconds * SERVED, canary)
        cache_after = stack.gateway.cache_stats
        lookups = cache_after.lookups - cache_before.lookups
        metrics["gateway.cache_hit_rate"] = (
            (cache_after.hits - cache_before.hits) / lookups if lookups else 0.0
        )
        metrics["gateway.cache_evictions"] = cache_after.evictions - cache_before.evictions
        metrics.update(served_probes(stack))
        admission = stack.server.admission_snapshot()
        metrics.update({
            "server.shed": admission.shed,
            "server.timeouts": stack.server.timeouts,
            "server.peak_queued": admission.load.peak_queued,
            "server.peak_in_flight": admission.load.peak_in_flight,
        })

        # 3. in-process replay of thread 0's script, continued: untraced, then traced
        rest = scripts[0][len(served.executed[0]):]
        untraced = Replay(stack, NullTracer()).play(rest, int(seconds * UNTRACED * 1e9))
        rest = rest[len(untraced.executed):]
        with installed(tracer, backend):
            traced = Replay(stack, tracer).play(rest, int(seconds * TRACED * 1e9))
            warm_spans, tracer.spans = tracer.spans, []
            if not untraced.records or not traced.records:
                raise RuntimeError(f"{workload.name}: the script ran out before the replay")
            # 4. cold replay: invalidate, fresh sessions, every SELECT template once
            cold_records: list = []
            cycles = range(harness.MAX_COLD_CYCLES)
            for _cycle in harness.budgeted(cycles, int(seconds * COLD * 1e9)):
                stack.gateway.invalidate_cache("perf-cold")
                cold_records.extend(Replay(stack, tracer).play(cold_units).records)
            cold_spans = tracer.spans

        metrics.update(layer_budget(warm_spans, len(traced.records)))
        cold_budget_ms = layer_budget(cold_spans, len(cold_records))
        metrics.update({
            "bench.stmt_cold_inprocess_ms": cold_budget_ms["bench.stmt_inprocess_ms"],
            "gateway.self_cold_ms": cold_budget_ms["gateway.self_ms"],
            "sql.parse_cold_ms": cold_budget_ms["sql.parse_ms"],
            "compile.query_cold_ms": cold_budget_ms["compile.query_ms"],
            "cluster.plan_cold_ms": cold_budget_ms["cluster.plan_ms"],
        })
        if hasattr(backend, "shard_connections"):
            metrics.update(shard_execute(warm_spans, len(traced.records)))
        else:
            metrics.update({
                "cluster.shard_execute_sum_ms": 0.0, "cluster.shard_execute_max_ms": 0.0,
            })
        metrics["bench.span_coverage_frac"] = (
            1.0 - metrics["bench.harness_self_ms"] / metrics["bench.stmt_inprocess_ms"]
        )
        metrics["bench.trace_overhead_frac"] = 1.0 - traced.per_second / untraced.per_second

        # served minus in-process replay, template by template
        served_p50 = harness.latency_summary(served.records)["template_p50_ms"]
        replay_p50 = harness.latency_summary(untraced.records)["template_p50_ms"]
        shared = [name for name in served_p50 if name in replay_p50]
        metrics["server.roundtrip_overhead_ms"] = sum(
            served_p50[name] - replay_p50[name] for name in shared
        ) / len(shared)

        # 5. counters over one warm pass of every SELECT template
        counted = census(stack, cold_units)
        metrics.update(counted["metrics"])

        # 6. direct calls
        metrics.update(compile_metrics(stack, cold_units))
        metrics["core.query_ms"] = core_query_ms(stack, cold_units)
        metrics["core.mt_overhead_ratio"] = (
            mt_overhead_ratio(stack) if workload.name.startswith("mth22") else 0.0
        )

        executed = [list(units) for units in served.executed]
        executed[0] += untraced.executed + traced.executed
        probes = harness.run_probes(stack, workload.final_checks(oracle, executed))
        metrics["engine.read_after_write_ms"] = read_after_write_ms(stack)
    finally:
        stack.close()

    metrics["bench.canary_ms"] = stats.median(served.slices + canary.sample(20)) / 1e6
    tracer.spans = setup_spans + warm_spans + cold_spans
    tracer.write_jsonl(trace_path)

    records = (
        stack.warmup_records + served.records + untraced.records + traced.records
        + cold_records + counted["records"] + probes
    )
    problems = harness.failures(oracle, records)
    if admission.shed or stack.server.timeouts:
        problems.append(
            f"server shed {admission.shed} and timed out {stack.server.timeouts} requests"
        )
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": len(problems),
        "problems": problems,
        "notes": [
            f"{workload.name}: served {len(served.records)} statements in "
            f"{served.wall_s:.2f} s, replayed {len(untraced.records)} untraced at "
            f"{untraced.per_second:.1f}/s and {len(traced.records)} traced at "
            f"{traced.per_second:.1f}/s, {len(cold_records)} cold; "
            f"{len(tracer.spans)} spans -> {trace_path}",
        ],
        "served_template_p50_ms": served_p50,
        "replay_template_p50_ms": replay_p50,
    }
