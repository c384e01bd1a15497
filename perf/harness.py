"""Set-up, the closed-loop load generator and the end-to-end metrics.

Everything a client does here goes over loopback TCP through the public
client: ``repro.api.connect("server://host:port", client=...)``.  Each client
thread is a closed loop — it sends its next statement only after the previous
one was answered and drained.

Noise discipline: scripts and bind values are generated before the clock
starts, ``gc.collect()`` runs before each timed phase (collection stays
enabled), all clocks are ``perf_counter_ns``, client threads never exceed the
core count, and the server's admission and worker settings are passed
explicitly instead of being read from the environment.

Machine-speed calibration: this sandbox's speed drifts by 10-20 % over
minutes, which moves every time alike (CPU seconds per statement included).
A fixed pure-Python loop that shares no code with the program — a **canary
slice** — is therefore timed throughout every timed phase (at most one slice
per ``SLICE_EVERY_NS`` per client thread, between statements), and each
end-to-end time is reported *at reference speed*: multiplied by
``REFERENCE_SLICE_NS / median(slice)``.  The raw values and the slice median
are kept in the report (``--out``) and the traced run reports raw times.
"""

from __future__ import annotations

import gc
import os
import resource
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable, Optional

import repro.api
from repro.errors import ReproError
from repro.mth import generate
from repro.server import ReproServer, ServerConfig

from . import stats
from .check import verify
from .workloads import DATA_SEED, PAGE, Op, Scale, Unit, Workload

#: the server under test: explicit, never from REPRO_SERVER_* variables
SERVER_CONFIG = ServerConfig(concurrency=2, queue_depth=8, workers=2)
#: entries of the gateway's rewrite cache (the program's default)
CACHE_SIZE = 256
OPTIMIZATION = "o4"
#: share of ``--seconds`` spent on cold (cache-invalidated) first executions
COLD_SHARE = 0.2
MAX_COLD_CYCLES = 40
#: what one canary slice takes on the machine the bounds were measured on
REFERENCE_SLICE_NS = 1_000_000
#: a client thread times a canary slice at most this often
SLICE_EVERY_NS = 25_000_000


class Canary:
    """A fixed pure-Python loop (tuples, floats, a dict) timed in slices."""

    ROWS = 200_000
    SLICE = 11_000

    def __init__(self) -> None:
        self.rows = [
            (index, index % 97, index * 1.5, f"k{index % 1013}") for index in range(self.ROWS)
        ]
        self._next = 0

    def slice_ns(self) -> int:
        """Time one slice; successive slices walk through the rows."""
        start = self._next
        self._next = (start + self.SLICE) % (self.ROWS - self.SLICE)
        began = perf_counter_ns()
        total = 0.0
        groups: dict = {}
        for key, bucket, amount, label in self.rows[start:start + self.SLICE]:
            if bucket < 60:
                total += amount * 0.5
                groups[label] = groups.get(label, 0) + key
        return perf_counter_ns() - began

    def sample(self, count: int) -> list:
        return [self.slice_ns() for _ in range(count)]


def at_reference(value: float, slices: list) -> float:
    """A time as it would read at the reference machine speed."""
    return value * REFERENCE_SLICE_NS / stats.median(slices)


@dataclass
class Stack:
    """One loaded instance with its gateway and a live server."""

    instance: object
    gateway: object
    server: ReproServer
    timings: dict = field(default_factory=dict)
    oracle: object = None
    warmup_records: list = field(default_factory=list)

    def connect(self, tenant: int, scope: Optional[str]):
        """A public-client connection for ``tenant`` over loopback TCP."""
        host, port = self.server.address
        return repro.api.connect(
            f"server://{host}:{port}", client=tenant, optimization=OPTIMIZATION, scope=scope
        )

    def close(self) -> None:
        self.server.stop()
        self.gateway.close()
        self.instance.backend.close()


@dataclass
class Record:
    """One executed statement: who sent what, how long it took, what came back."""

    tenant: int
    op: Op
    latency_ns: int
    observed: object


def execute(cursor, op: Op):
    """Run one statement on a DB-API cursor and drain it the way ``op`` says."""
    cursor.execute(op.sql, op.params)
    if op.fetch == "none":
        return cursor.rowcount
    if op.fetch == "all":
        rows = cursor.fetchall()
    else:
        rows = []
        while True:
            page = cursor.fetchmany(PAGE)
            rows.extend(page)
            if len(page) < PAGE:
                break
    return rows if op.keep_rows else len(rows)


def observe(cursor, tenant: int, op: Op, began: Optional[int] = None) -> Record:
    """Execute ``op`` and record its latency; a typed error is the observation."""
    if began is None:
        began = perf_counter_ns()
    try:
        observed = execute(cursor, op)
    except ReproError as exc:
        observed = exc
    return Record(tenant, op, perf_counter_ns() - began, observed)


def budgeted(items, budget_ns: Optional[int]):
    """Yield ``items`` until the next one, taking as long as the last, would
    overrun ``budget_ns`` (always at least one; ``None`` means all)."""
    began = perf_counter_ns()
    last = None
    for item in items:
        now = perf_counter_ns()
        if budget_ns is not None and last is not None and now - began + last > budget_ns:
            return
        yield item
        last = perf_counter_ns() - now


class Client:
    """One closed-loop client thread's connections and its record list."""

    def __init__(self, connect: Callable, units: list) -> None:
        self.connect = connect  # (tenant, scope) -> DB-API connection
        self.units = units
        self.records: list[Record] = []
        self.executed: list[Unit] = []
        self.slices: list[int] = []
        self._sliced = 0
        self._connections: dict = {}

    def open_persistent(self) -> None:
        """Connect every non-visit identity of the script before the clock."""
        for unit in self.units:
            key = (unit.tenant, unit.scope)
            if not unit.visit and key not in self._connections:
                connection = self.connect(*key)
                self._connections[key] = (connection, connection.cursor())

    def close(self) -> None:
        for connection, _cursor in self._connections.values():
            connection.close()
        self._connections.clear()

    def run_unit(self, unit: Unit, canary: Optional["Canary"] = None) -> None:
        """Play one unit; with a ``canary``, time a slice between statements
        whenever the last one is ``SLICE_EVERY_NS`` old."""
        if unit.visit:
            connection = self.connect(unit.tenant, unit.scope)
            cursor = connection.cursor()
        else:
            connection, cursor = self._connections[(unit.tenant, unit.scope)]
        append = self.records.append
        try:
            for op in unit.ops:
                began = perf_counter_ns()
                if canary is not None and began - self._sliced >= SLICE_EVERY_NS:
                    self.slices.append(canary.slice_ns())
                    self._sliced = began = perf_counter_ns()
                append(observe(cursor, unit.tenant, op, began))
        finally:
            if unit.visit:
                connection.close()
        self.executed.append(unit)

    def run(self, budget_ns: int, start: threading.Barrier, canary: Canary) -> None:
        """Play units until the next one would overrun ``budget_ns``."""
        start.wait()
        for unit in budgeted(self.units, budget_ns):
            self.run_unit(unit, canary)

    @property
    def exhausted(self) -> bool:
        """Whether the script ran out before the budget did."""
        return len(self.executed) == len(self.units)


def _timed(timings: dict, name: str, fn: Callable):
    began = perf_counter_ns()
    result = fn()
    timings[name] = (perf_counter_ns() - began) / 1e9
    return result


def build_stack(workload: Workload, scale: Scale, oracle=None) -> Stack:
    """Generate, load, collect statistics, start the server, warm up.

    The oracle is built from the first loaded instance and reused by later
    set-ups of the same (deterministic) data; its cost is the benchmark's,
    so it is left out of ``setup_s``.
    """
    timings: dict = {"bench.oracle_s": 0.0}
    began = perf_counter_ns()
    data = _timed(
        timings, "mth.generate_s",
        lambda: generate(scale_factor=scale.scale_factor, seed=DATA_SEED),
    )
    instance = _timed(timings, "mth.load_s", lambda: workload.load(data))

    def start():
        gateway = instance.middleware.gateway(cache_size=CACHE_SIZE)
        return gateway, ReproServer(gateway, config=SERVER_CONFIG).start()

    gateway, server = _timed(timings, "server.start_s", start)
    stack = Stack(instance, gateway, server, timings)
    try:
        if oracle is None:
            oracle = _timed(timings, "bench.oracle_s", lambda: workload.oracle(instance))
        stack.oracle = oracle
        began_warmup = perf_counter_ns()
        client = Client(stack.connect, workload.warmup(instance, oracle))
        client.open_persistent()
        try:
            for _ in range(2):
                for unit in client.units:
                    client.run_unit(unit)
        finally:
            client.close()
        timings["bench.warmup_s"] = (perf_counter_ns() - began_warmup) / 1e9
        stack.warmup_records = client.records
    except BaseException:
        stack.close()
        raise
    timings["setup_s"] = (perf_counter_ns() - began) / 1e9 - timings["bench.oracle_s"]
    return stack


def set_up(workload: Workload, scale: Scale, canary: Canary) -> tuple[Stack, list, list]:
    """Set up ``scale.setups`` times; keep the last stack.

    Returns the stack, every set-up's seconds and the same at reference speed
    (canary slices are timed right before and after each set-up).
    """
    raw, normalized = [], []
    stack = oracle = None
    for _ in range(scale.setups):
        if stack is not None:
            stack.close()
            stack = None
            gc.collect()
        slices = canary.sample(20)
        stack = build_stack(workload, scale, oracle)
        slices += canary.sample(20)
        oracle = stack.oracle
        raw.append(stack.timings["setup_s"])
        normalized.append(at_reference(raw[-1], slices))
    return stack, raw, normalized


@dataclass
class Phase:
    """Outcome of one timed closed-loop phase."""

    records: list
    executed: list  # per thread: the units it completed
    wall_s: float  # canary slices excluded
    cpu_s: float  # canary slices excluded
    slices: list
    exhausted: bool


def steady_phase(stack: Stack, scripts: list, seconds: float, canary: Canary) -> Phase:
    """All client threads play their scripts for ``seconds`` (closed loop)."""
    clients = [Client(stack.connect, units) for units in scripts]
    for client in clients:
        client.open_persistent()
    barrier = threading.Barrier(len(clients) + 1)
    budget = int(seconds * 1e9)
    threads = [
        threading.Thread(
            target=client.run, args=(budget, barrier, canary), name=f"perf-client-{i}"
        )
        for i, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    gc.collect()
    cpu_began = time.process_time_ns()
    barrier.wait()
    began = perf_counter_ns()
    for thread in threads:
        thread.join()
    wall = perf_counter_ns() - began
    cpu = time.process_time_ns() - cpu_began
    for client in clients:
        client.close()
    slices = [ns for client in clients for ns in client.slices]
    return Phase(
        records=[record for client in clients for record in client.records],
        executed=[client.executed for client in clients],
        # each thread spent its own slices; the phase lasted as long as the slowest
        wall_s=(wall - sum(slices) / len(clients)) / 1e9,
        cpu_s=(cpu - sum(slices)) / 1e9,
        slices=slices,
        exhausted=any(client.exhausted for client in clients),
    )


def cold_phase(stack: Stack, units: list, seconds: float, canary: Canary) -> tuple[list, list]:
    """First executions right after ``invalidate_cache`` on fresh connections.

    Returns the records and the canary slices timed between the cycles.
    """
    records: list[Record] = []
    slices: list[int] = []
    gc.collect()
    for _cycle in budgeted(range(MAX_COLD_CYCLES), int(seconds * 1e9)):
        stack.gateway.invalidate_cache("perf-cold")
        client = Client(stack.connect, units)
        client.open_persistent()
        try:
            for unit in units:
                client.run_unit(unit, canary)
        finally:
            client.close()
        records.extend(client.records)
        slices += client.slices + canary.sample(2)
    return records, slices


def failures(oracle, records: list) -> list[str]:
    """Mismatch descriptions of every record the oracle rejects.

    A result kept in full that equals an already verified result of the same
    statement and bindings is not compared again.
    """
    problems = []
    verified: dict = {}
    for record in records:
        key = (record.tenant, record.op.sql, record.op.params, record.op.expect)
        known = verified.get(key)
        if known is not None and known == record.observed:
            continue
        problem = verify(oracle, record.tenant, record.op.expect, record.observed)
        if problem is not None:
            problems.append(f"{record.op.template} {record.op.params!r}: {problem}")
        else:
            verified[key] = record.observed
    return problems


def run_probes(stack: Stack, probes: list) -> list:
    """Execute ``(tenant, scope, op)`` probes on fresh connections."""
    records = []
    for tenant, scope, op in probes:
        connection = stack.connect(tenant, scope)
        try:
            records.append(observe(connection.cursor(), tenant, op))
        finally:
            connection.close()
    return records


def latency_summary(records: list) -> dict:
    """Median, p90, template geomean and the highest supported tail."""
    latencies = []
    by_template: dict[str, list[float]] = {}
    for record in records:
        if not isinstance(record.observed, BaseException):
            latencies.append(record.latency_ns / 1e6)
            by_template.setdefault(record.op.template, []).append(latencies[-1])
    tail = stats.highest_supported_percentile(len(latencies))
    return {
        "samples": len(latencies),
        "p50_ms": stats.median(latencies),
        "p90_ms": stats.percentile(latencies, 0.90),
        "tail_fraction": tail,
        "tail_ms": stats.percentile(latencies, tail) if tail is not None else None,
        "template_geomean_ms": stats.geomean(
            [stats.median(values) for values in by_template.values()]
        ),
        "template_p50_ms": {
            name: stats.median(values) for name, values in sorted(by_template.items())
        },
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def client_threads_allowed(workload: Workload) -> None:
    """Client threads never exceed the core count."""
    cores = os.cpu_count() or 1
    if workload.threads > cores:
        raise RuntimeError(
            f"{workload.name} needs {workload.threads} client threads but this "
            f"machine has {cores} cores"
        )


def end_to_end_run(workload: Workload, scale: Scale, seed: int, seconds: float) -> dict:
    """The untraced run: set up, steady closed loop, cold cycles, verify."""
    canary = Canary()
    stack, setups_raw, setups = set_up(workload, scale, canary)
    try:
        oracle = stack.oracle
        scripts = [
            workload.script(stack.instance, oracle, seed, seconds, thread)
            for thread in range(workload.threads)
        ]
        cold_units = workload.cold(stack.instance, oracle)
        steady = steady_phase(stack, scripts, seconds * (1 - COLD_SHARE), canary)
        cold, cold_slices = cold_phase(stack, cold_units, seconds * COLD_SHARE, canary)
        probes = run_probes(stack, workload.final_checks(oracle, steady.executed))
        admission = stack.server.admission_snapshot()
        timeouts = stack.server.timeouts
    finally:
        stack.close()
    records = stack.warmup_records + steady.records + cold + probes
    problems = failures(oracle, records)
    if admission.shed or timeouts:
        problems.append(f"server shed {admission.shed} and timed out {timeouts} requests")
    summary = latency_summary(steady.records)
    cold_summary = latency_summary(cold)
    answered = summary["samples"]
    raw = {
        "setup_s": stats.median(setups_raw),
        "stmt_p50_ms": summary["p50_ms"],
        "stmt_p90_ms": summary["p90_ms"],
        "throughput_stmt_s": answered / steady.wall_s,
        "template_geomean_ms": summary["template_geomean_ms"],
        "cold_geomean_ms": cold_summary["template_geomean_ms"],
        "cpu_s_per_kstmt": steady.cpu_s / answered * 1000,
    }
    speed = at_reference(1.0, steady.slices)  # > 1: the machine ran faster than the reference
    metrics = {name: value * speed for name, value in raw.items()}
    metrics.update({
        "throughput_stmt_s": raw["throughput_stmt_s"] / speed,
        "setup_s": stats.median(setups),
        "cold_geomean_ms": at_reference(raw["cold_geomean_ms"], cold_slices),
        "peak_rss_mb": peak_rss_mb(),
    })
    notes = [
        f"{workload.name}: {answered} statements in {steady.wall_s:.2f} s by "
        f"{workload.threads} closed-loop client(s); {cold_summary['samples']} cold samples; "
        f"set-ups {', '.join(f'{value:.2f}' for value in setups_raw)} s",
        f"times are at reference speed: canary slice {stats.median(steady.slices) / 1e6:.3f} ms "
        f"(n={len(steady.slices)}) against {REFERENCE_SLICE_NS / 1e6:.3f} ms; raw "
        + ", ".join(f"{name}={value:.4g}" for name, value in raw.items()),
    ]
    if summary["tail_fraction"] is not None:
        notes.append(
            f"highest percentile with >= {stats.MIN_SAMPLES_BEYOND} samples beyond it: "
            f"p{summary['tail_fraction'] * 100:.1f} = {summary['tail_ms']:.3f} ms (raw)"
        )
    if steady.exhausted and scale.name == "full":
        notes.append("WARNING: a client ran out of generated statements before the deadline")
    return {
        "metrics": metrics,
        "raw_metrics": raw,
        "canary_slice_ms": stats.median(steady.slices) / 1e6,
        "attempted": len(records),
        "failed": len(problems),
        "problems": problems,
        "notes": notes,
        "template_p50_ms": summary["template_p50_ms"],
        "setup_breakdown_s": stack.timings,
    }
