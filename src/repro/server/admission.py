"""Per-tenant admission control: bounded queues, concurrency caps, shedding.

Every EXECUTE request passes through the connection's tenant gate before it
may touch a worker thread:

* up to ``concurrency`` requests of one tenant run (or hold an open cursor)
  at once,
* up to ``queue_depth`` more may *wait* for a slot,
* anything beyond that is **shed immediately** with a retryable
  ``SERVER_BUSY`` error frame — the request never consumes backend
  resources, and the client knows a backoff-and-retry is safe.

Slots are held for the whole life of a request **including its result
stream**: a result that fits the first page of its EXECUTE reply gives the
slot back before that reply is written, but a client that executes a large
SELECT and stops fetching keeps its slot pinned until the cursor is exhausted
or closed, so one slow consumer throttles *its own tenant* (further
statements shed) instead of stalling the event loop or other tenants — that
is the backpressure story.

Load is tracked by a :class:`LoadGauge` per gate — requests in flight and
requests queued, with their peaks; every gate updates its own gauge and the
controller's, so the server-wide peaks are peaks that really happened, not
sums of per-tenant peaks.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Optional

from ..errors import ServerBusyError


@dataclass(frozen=True)
class LoadSnapshot:
    """Point-in-time load reading of a :class:`LoadGauge`."""

    in_flight: int
    queued: int
    peak_in_flight: int
    peak_queued: int

    def describe(self) -> str:
        """One-line human-readable load summary."""
        return (
            f"in-flight {self.in_flight} (peak {self.peak_in_flight}), "
            f"queued {self.queued} (peak {self.peak_queued})"
        )


class LoadGauge:
    """Thread-safe in-flight/queue-depth gauge with peak tracking.

    ``enqueue``/``dequeue`` bracket the time a request waits for a slot;
    ``enter``/``exit`` bracket the time it holds one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._in_flight = 0
        self._queued = 0
        self._peak_in_flight = 0
        self._peak_queued = 0

    def enqueue(self) -> None:
        """A request started waiting for an execution slot."""
        with self._lock:
            self._queued += 1
            self._peak_queued = max(self._peak_queued, self._queued)

    def dequeue(self) -> None:
        """A waiting request left the queue (admitted or shed)."""
        with self._lock:
            self._queued -= 1

    def enter(self) -> None:
        """A request began executing."""
        with self._lock:
            self._in_flight += 1
            self._peak_in_flight = max(self._peak_in_flight, self._in_flight)

    def exit(self) -> None:
        """A request finished executing (successfully or not)."""
        with self._lock:
            self._in_flight -= 1

    def snapshot(self) -> LoadSnapshot:
        """A consistent reading of the current and peak load."""
        with self._lock:
            return LoadSnapshot(
                in_flight=self._in_flight,
                queued=self._queued,
                peak_in_flight=self._peak_in_flight,
                peak_queued=self._peak_queued,
            )


@dataclass(frozen=True)
class AdmissionSnapshot:
    """Point-in-time counters of one gate (or the whole controller)."""

    admitted: int
    shed: int
    load: LoadSnapshot

    def describe(self) -> str:
        """One-line human-readable admission summary."""
        return f"admitted {self.admitted}, shed {self.shed}, {self.load.describe()}"


class TenantGate:
    """One tenant's bounded admission queue + concurrency cap.

    Single-loop discipline: ``admit``/``release`` run on the event-loop
    thread (worker threads release via ``loop.call_soon_threadsafe``), so the
    counters need no locking; the :class:`LoadGauge` pair — this tenant's and
    the controller's server-wide ``total`` — is thread-safe on its own.
    """

    def __init__(
        self, ttid: int, concurrency: int, queue_depth: int, total: LoadGauge
    ) -> None:
        self.ttid = ttid
        self.concurrency = concurrency
        self.queue_depth = queue_depth
        self.gauge = LoadGauge()
        self._gauges = (self.gauge, total)
        self.admitted = 0
        self.shed = 0
        self._in_flight = 0
        self._waiters: list[asyncio.Future] = []

    def try_admit(self) -> bool:
        """Take one execution slot if one is free and nobody queues for it."""
        if self._in_flight < self.concurrency and not self._waiters:
            self._grant()
            return True
        return False

    async def admit(self) -> None:
        """Take one execution slot, waiting in the bounded queue if needed.

        Raises :class:`~repro.errors.ServerBusyError` without waiting when
        the queue is already full — the load-shedding path.
        """
        if self.try_admit():
            return
        if len(self._waiters) >= self.queue_depth:
            self.shed += 1
            raise ServerBusyError(
                f"tenant {self.ttid} is at capacity ({self._in_flight} in "
                f"flight, {len(self._waiters)} queued); retry after a backoff"
            )
        waiter: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(waiter)
        for gauge in self._gauges:
            gauge.enqueue()
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter in self._waiters:
                # timed out / disconnected while still queued: withdraw
                self._waiters.remove(waiter)
                self._dequeued()
            elif waiter.done() and not waiter.cancelled():
                # granted in the same instant the wait was cancelled: hand
                # the slot straight back (to the next waiter, if any)
                self._release_slot()
            # else: _release_slot already skipped the cancelled waiter
            raise

    def _dequeued(self) -> None:
        """A waiter left ``_waiters``: the gauges' queue depth tracks the list
        itself, not the moment the waiting coroutine next runs."""
        for gauge in self._gauges:
            gauge.dequeue()

    def _grant(self) -> None:
        self._in_flight += 1
        self.admitted += 1
        for gauge in self._gauges:
            gauge.enter()

    def release(self) -> None:
        """Give one slot back; a queued waiter (if any) takes it over."""
        self._release_slot()

    def _release_slot(self) -> None:
        self._in_flight -= 1
        for gauge in self._gauges:
            gauge.exit()
        while self._waiters:
            waiter = self._waiters.pop(0)
            self._dequeued()
            if waiter.cancelled():
                continue
            self._grant()
            waiter.set_result(None)
            return

    @property
    def in_flight(self) -> int:
        """Requests of this tenant currently executing or holding a cursor."""
        return self._in_flight

    @property
    def queued(self) -> int:
        """Requests of this tenant currently waiting for a slot."""
        return len(self._waiters)

    def snapshot(self) -> AdmissionSnapshot:
        """This gate's counters plus its gauge reading."""
        return AdmissionSnapshot(
            admitted=self.admitted, shed=self.shed, load=self.gauge.snapshot()
        )


class AdmissionController:
    """The server's tenant-gate registry (lazily one gate per tenant)."""

    def __init__(self, concurrency: int, queue_depth: int) -> None:
        self.concurrency = concurrency
        self.queue_depth = queue_depth
        #: server-wide load, updated by every gate alongside its own gauge
        self.gauge = LoadGauge()
        self._gates: dict[int, TenantGate] = {}

    def gate(self, ttid: int) -> TenantGate:
        """The (lazily created) gate of tenant ``ttid``."""
        gate = self._gates.get(ttid)
        if gate is None:
            gate = TenantGate(ttid, self.concurrency, self.queue_depth, self.gauge)
            self._gates[ttid] = gate
        return gate

    def snapshot(self) -> AdmissionSnapshot:
        """Server-wide counters: admitted/shed summed over the tenant gates,
        ``load`` the controller's own gauge — its peaks are the most requests
        that ever held a slot (or queued) *at the same time* on this server."""
        gates = list(self._gates.values())
        return AdmissionSnapshot(
            admitted=sum(gate.admitted for gate in gates),
            shed=sum(gate.shed for gate in gates),
            load=self.gauge.snapshot(),
        )

    def tenant_snapshot(self, ttid: int) -> Optional[AdmissionSnapshot]:
        """One tenant's counters, or ``None`` if it never connected."""
        gate = self._gates.get(ttid)
        return gate.snapshot() if gate is not None else None
