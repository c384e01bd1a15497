"""Admission gates as units: what the load gauges count, and when."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServerBusyError
from repro.server import AdmissionController, admission
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


def _admit_on_thread(gate, timeout=5.0):
    """Start ``gate.admit(timeout)`` on a thread; ``(thread, outcome)``, the
    outcome list filling with the admit's result or the error it raised."""
    outcome = []

    def admit():
        try:
            outcome.append(gate.admit(timeout))
        except ServerBusyError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=admit)
    thread.start()
    return thread, outcome


def _until(condition, seconds=5.0):
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def test_try_admit_never_jumps_the_queue_and_never_queues():
    controller = AdmissionController(concurrency=1, queue_depth=1)
    gate = controller.gate(7)
    assert gate.try_admit() and not gate.try_admit()
    waiting, outcome = _admit_on_thread(gate)
    _until(lambda: gate.queued == 1)
    gate.release()  # hands the slot to the waiter, not to a newcomer
    assert not gate.try_admit()
    waiting.join(5)
    assert not waiting.is_alive() and outcome == [True]
    assert gate.in_flight == 1 and gate.queued == 0
    queued, outcome = _admit_on_thread(gate)  # takes the one queue place
    _until(lambda: gate.queued == 1)
    with pytest.raises(ServerBusyError):
        gate.admit(5.0)
    assert controller.snapshot().shed == 1
    gate.release()
    queued.join(5)
    assert not queued.is_alive() and outcome == [True]


def test_a_queued_admit_whose_wait_runs_out_withdraws_from_the_queue():
    controller = AdmissionController(concurrency=1, queue_depth=1)
    gate = controller.gate(3)
    assert gate.try_admit()
    assert gate.admit(0.05) is False
    assert gate.queued == 0 and controller.snapshot().load.queued == 0
    gate.release()
    assert gate.in_flight == 0 and gate.try_admit()  # the slot went to nobody


def test_queue_depth_gauge_follows_the_queue_not_the_waiters_wakeup():
    controller = AdmissionController(concurrency=1, queue_depth=1)
    gate = controller.gate(0)
    assert gate.try_admit()
    first, first_outcome = _admit_on_thread(gate)
    _until(lambda: gate.queued == 1)
    with gate._lock:  # ``first`` cannot wake before this block ends
        gate.release()  # ``first`` owns the slot now but has not run yet
        assert gate.queued == 0 and controller.snapshot().load.queued == 0
    second, second_outcome = _admit_on_thread(gate)  # takes the freed queue place
    _until(lambda: gate.queued == 1)
    first.join(5)
    gate.release()
    second.join(5)
    gate.release()
    assert not first.is_alive() and not second.is_alive()
    assert first_outcome == [True] and second_outcome == [True]
    for snapshot in (controller.snapshot(), controller.tenant_snapshot(0)):
        assert snapshot.load.peak_queued == 1 and snapshot.load.queued == 0
        assert snapshot.load.peak_in_flight == 1 and snapshot.load.in_flight == 0


def test_racing_first_callers_of_one_tenant_get_one_gate(monkeypatch):
    built = []

    class SlowGate(admission.TenantGate):
        def __init__(self, *args):
            time.sleep(0.02)  # widens the window two unguarded creations race in
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(admission, "TenantGate", SlowGate)
    controller = AdmissionController(concurrency=1, queue_depth=0)
    start = threading.Barrier(4)
    gates = []

    def first_call():
        start.wait()
        gates.append(controller.gate(5))

    callers = [threading.Thread(target=first_call) for _ in range(4)]
    for caller in callers:
        caller.start()
    for caller in callers:
        caller.join(5)
    assert not any(caller.is_alive() for caller in callers)
    assert len(built) == 1 and all(gate is built[0] for gate in gates)
    assert gates[0].try_admit() and not gates[1].try_admit()  # one concurrency cap


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
