"""Admission gates as units: what the load gauges count, and when."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.errors import ServerBusyError
from repro.server import AdmissionController
from repro.server.admission import LoadGauge


def test_the_server_wide_peak_is_a_peak_that_happened_not_a_sum_of_peaks():
    controller = AdmissionController(concurrency=2, queue_depth=0)
    for ttid in range(12):  # twelve tenants, never two requests at once
        gate = controller.gate(ttid)
        assert gate.try_admit()
        gate.release()
    both = controller.gate(0), controller.gate(1)
    assert all(gate.try_admit() for gate in both)
    for gate in both:
        gate.release()
    snapshot = controller.snapshot()
    assert snapshot.admitted == 14
    assert snapshot.load.peak_in_flight == 2 and snapshot.load.in_flight == 0
    # the per-tenant view is unchanged: each gate peaked at one
    assert {controller.tenant_snapshot(t).load.peak_in_flight for t in range(12)} == {1}


def test_try_admit_never_jumps_the_queue_and_never_queues():
    async def main():
        controller = AdmissionController(concurrency=1, queue_depth=1)
        gate = controller.gate(7)
        assert gate.try_admit() and not gate.try_admit()
        waiting = asyncio.ensure_future(gate.admit())
        await asyncio.sleep(0)
        assert gate.queued == 1
        gate.release()  # hands the slot to the waiter, not to a newcomer
        assert not gate.try_admit()
        await waiting
        assert gate.in_flight == 1 and gate.queued == 0
        with pytest.raises(ServerBusyError):
            await asyncio.gather(gate.admit(), gate.admit())
        assert controller.snapshot().shed == 1

    asyncio.run(main())


def test_queue_depth_gauge_follows_the_queue_not_the_waiters_wakeup():
    async def main():
        controller = AdmissionController(concurrency=1, queue_depth=1)
        gate = controller.gate(0)
        assert gate.try_admit()
        first = asyncio.ensure_future(gate.admit())
        await asyncio.sleep(0)
        gate.release()  # ``first`` owns the slot now but has not run yet
        second = asyncio.ensure_future(gate.admit())  # takes the freed queue place
        await first
        gate.release()
        await second
        gate.release()
        for snapshot in (controller.snapshot(), controller.tenant_snapshot(0)):
            assert snapshot.load.peak_queued == 1 and snapshot.load.queued == 0
            assert snapshot.load.peak_in_flight == 1 and snapshot.load.in_flight == 0

    asyncio.run(main())


def test_load_gauge_counts_and_peaks():
    gauge = LoadGauge()
    gauge.enqueue()
    gauge.enqueue()
    gauge.dequeue()
    gauge.enter()
    gauge.enter()
    gauge.exit()
    snapshot = gauge.snapshot()
    assert (snapshot.queued, snapshot.peak_queued) == (1, 2)
    assert (snapshot.in_flight, snapshot.peak_in_flight) == (1, 2)
    assert "peak 2" in snapshot.describe()


def test_load_gauge_is_exact_under_racing_threads():
    gauge = LoadGauge()
    threads = 8
    rounds = 500
    start = threading.Barrier(threads)

    def churn():
        start.wait()
        for _ in range(rounds):
            gauge.enqueue()
            gauge.dequeue()
            gauge.enter()
            gauge.exit()

    workers = [threading.Thread(target=churn) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    snapshot = gauge.snapshot()
    assert snapshot.in_flight == 0 and snapshot.queued == 0  # every bracket closed
    assert 1 <= snapshot.peak_in_flight <= threads
    assert 1 <= snapshot.peak_queued <= threads
    described = snapshot.describe()
    assert "in-flight 0" in described and "queued 0" in described
