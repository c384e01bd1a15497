"""Per-tenant admission control: bounded queues, concurrency caps, shedding.

Every EXECUTE request passes through the connection's tenant gate before it
may run backend work:

* up to ``concurrency`` requests of one tenant run (or hold an open cursor)
  at once,
* up to ``queue_depth`` more may *wait* for a slot, in arrival order,
* anything beyond that is **shed immediately** with a retryable
  ``SERVER_BUSY`` error frame — the request never consumes backend
  resources, and the client knows a backoff-and-retry is safe.

Slots are held for the whole life of a request **including its result
stream**: a result that fits the first page of its EXECUTE reply gives the
slot back before that reply is written, but a client that executes a large
SELECT and stops fetching keeps its slot pinned until the cursor is exhausted
or closed, so one slow consumer throttles *its own tenant* (further
statements shed) instead of stalling other connections or tenants — that is
the backpressure story.

Gates are shared by the server's connection threads: a gate's counters and
queue live under its own lock (a :class:`threading.Condition` its waiters
sleep on), and the controller creates each gate exactly once.  Load is
tracked by a :class:`LoadGauge` per gate — requests in flight and requests
queued, with their peaks; every gate updates its own gauge and the
controller's, so the server-wide peaks are peaks that really happened, not
sums of per-tenant peaks.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from time import monotonic
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


class _Waiter:
    """One queued admission request; ``granted`` once a release handed it a slot."""

    __slots__ = ("granted",)

    def __init__(self) -> None:
        self.granted = False


class TenantGate:
    """One tenant's bounded admission queue + concurrency cap.

    Every counter and the queue change under ``_lock``, the condition queued
    requests wait on; a release hands its slot to the oldest waiter before
    the lock is let go, so a newcomer can never take it first.  The
    :class:`LoadGauge` pair — this tenant's and the controller's server-wide
    ``total`` — is thread-safe on its own.
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
        self._waiters: deque[_Waiter] = deque()
        self._lock = threading.Condition()  # re-entrant: ``admit`` tries first

    def try_admit(self) -> bool:
        """Take one execution slot if one is free and nobody queues for it."""
        with self._lock:
            if self._in_flight >= self.concurrency or self._waiters:
                return False
            self._in_flight += 1
            self.admitted += 1
            for gauge in self._gauges:
                gauge.enter()
            return True

    def admit(self, timeout: float) -> bool:
        """Take one execution slot, waiting up to ``timeout`` seconds in the
        bounded queue; ``False`` when the wait ran out without a slot.

        Raises :class:`~repro.errors.ServerBusyError` without waiting when
        the queue is already full — the load-shedding path.
        """
        with self._lock:
            if self.try_admit():
                return True
            if len(self._waiters) >= self.queue_depth:
                self.shed += 1
                raise ServerBusyError(
                    f"tenant {self.ttid} is at capacity ({self._in_flight} in "
                    f"flight, {len(self._waiters)} queued); retry after a backoff"
                )
            waiter = _Waiter()
            self._waiters.append(waiter)
            for gauge in self._gauges:
                gauge.enqueue()
            deadline = monotonic() + timeout
            while not waiter.granted:
                remaining = deadline - monotonic()
                if remaining <= 0:  # timed out while still queued: withdraw
                    self._waiters.remove(waiter)
                    for gauge in self._gauges:
                        gauge.dequeue()
                    return False
                self._lock.wait(remaining)
            return True

    def release(self) -> None:
        """Give one slot back; the oldest queued waiter (if any) takes it over.

        The gauges' queue depth follows the queue itself, not the moment the
        woken waiter next runs."""
        with self._lock:
            for gauge in self._gauges:
                gauge.exit()
            if not self._waiters:
                self._in_flight -= 1
                return
            self._waiters.popleft().granted = True
            self.admitted += 1
            for gauge in self._gauges:
                gauge.dequeue()
                gauge.enter()
            self._lock.notify_all()

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
        with self._lock:
            admitted, shed = self.admitted, self.shed
        return AdmissionSnapshot(admitted=admitted, shed=shed, load=self.gauge.snapshot())


class AdmissionController:
    """The server's tenant-gate registry (lazily one gate per tenant)."""

    def __init__(self, concurrency: int, queue_depth: int) -> None:
        self.concurrency = concurrency
        self.queue_depth = queue_depth
        #: server-wide load, updated by every gate alongside its own gauge
        self.gauge = LoadGauge()
        self._gates: dict[int, TenantGate] = {}
        self._lock = threading.Lock()

    def gate(self, ttid: int) -> TenantGate:
        """The (lazily created) gate of tenant ``ttid``; racing first callers
        of one tenant get the same gate."""
        gate = self._gates.get(ttid)
        if gate is None:
            with self._lock:
                gate = self._gates.get(ttid)
                if gate is None:
                    gate = TenantGate(ttid, self.concurrency, self.queue_depth, self.gauge)
                    self._gates[ttid] = gate
        return gate

    def snapshot(self) -> AdmissionSnapshot:
        """Server-wide counters: admitted/shed summed over the tenant gates,
        ``load`` the controller's own gauge — its peaks are the most requests
        that ever held a slot (or queued) *at the same time* on this server."""
        with self._lock:
            gates = list(self._gates.values())
        snapshots = [gate.snapshot() for gate in gates]
        return AdmissionSnapshot(
            admitted=sum(snapshot.admitted for snapshot in snapshots),
            shed=sum(snapshot.shed for snapshot in snapshots),
            load=self.gauge.snapshot(),
        )

    def tenant_snapshot(self, ttid: int) -> Optional[AdmissionSnapshot]:
        """One tenant's counters, or ``None`` if it never connected."""
        gate = self._gates.get(ttid)
        return gate.snapshot() if gate is not None else None
