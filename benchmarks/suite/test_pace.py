"""Host-speed scaling: the probe runs only while the load is idle, and
timing metrics scale by the host factor in the right direction.  Run
with::

    PYTHONPATH=src python -m pytest benchmarks/suite/test_pace.py
"""

import threading
import time

import pytest

from . import harness, load, pace
from .workloads import CONNECTIONS


REF = pace.PROBE_REF_MS


def test_an_operation_scales_by_the_probes_around_it():
    timeline = pace.Timeline([(0.0, REF), (1.0, 3 * REF), (2.0, 5 * REF),
                              (9.0, 7 * REF)])
    # from 1.2 s to 1.6 s: between the probes at 1 s and 2 s
    assert timeline.factor(1.2, 1.6) == pytest.approx(4.0)
    assert timeline.scaled(400.0, 1.6) == pytest.approx(100.0)
    # before the first probe or after the last: the one probe beside it
    assert timeline.factor(-1.0, -0.5) == pytest.approx(1.0)
    assert timeline.factor(9.5, 10.0) == pytest.approx(7.0)
    # spanning every probe: all of them
    assert timeline.factor(-1.0, 10.0) == pytest.approx(4.0)
    assert timeline.scaled(float("inf"), 1.6) == float("inf")


def test_a_timeline_needs_probes():
    with pytest.raises(ValueError):
        pace.Timeline([])


def test_per_class_scaling_keeps_failures_failed():
    timeline = pace.Timeline([(0.0, 2 * REF), (5.0, 2 * REF)])
    raw, scaled = harness._per_class(
        {"a": [(40.0, 1.0), (float("inf"), 2.0)]}, timeline)
    assert raw == {"a": [40.0, float("inf")]}
    assert scaled["a"][0] == pytest.approx(20.0)
    assert scaled["a"][1] == float("inf")


def test_a_class_with_its_own_timeline_scales_by_it():
    timeline = pace.Timeline([(0.0, 2 * REF), (5.0, 2 * REF)])
    pair = pace.Timeline([(0.0, 4.0), (5.0, 4.0)], ref_ms=2.0)
    _, scaled = harness._per_class(
        {"one": [(40.0, 1.0)], "two": [(40.0, 1.0)]}, timeline,
        {"two": pair})
    assert scaled["one"] == [pytest.approx(20.0)]
    assert scaled["two"] == [pytest.approx(20.0)]


def test_the_pair_probe_times_its_two_threads():
    ms = [pace.pair_probe() for _ in range(3)]
    assert all(0.0 < m < 1000.0 for m in ms)
    t, m = pace.pair_sample()
    assert t <= time.perf_counter() and m > 0.0


def test_probes_run_only_while_every_sender_sleeps(monkeypatch):
    ran = []
    monkeypatch.setattr(pace, "probe", lambda: ran.append(1) or 1.0)
    monkeypatch.setattr(pace, "PROBE_EVERY_S", 0.01)
    gate = load.IdleGate()
    samples = []
    prober = threading.Thread(target=gate.probe_while_idle,
                              args=(samples,), daemon=True)
    senders_asleep = threading.Event()
    wake_up = threading.Event()

    def sender(due_in: float) -> None:
        gate.asleep(time.perf_counter() + due_in)
        senders_asleep.wait(timeout=5)
        wake_up.wait(timeout=5)
        gate.awake()

    prober.start()
    try:
        # every sender busy: nothing may run
        time.sleep(0.1)
        assert ran == []
        # all asleep, the next send far off: probes run
        threads = [threading.Thread(target=sender, args=(10.0,))
                   for _ in range(CONNECTIONS)]
        for t in threads:
            t.start()
        senders_asleep.set()
        deadline = time.perf_counter() + 5
        while not ran and time.perf_counter() < deadline:
            time.sleep(0.01)
        assert ran
        # a sender awake again: probing stops
        wake_up.set()
        for t in threads:
            t.join(timeout=5)
            assert not t.is_alive()
        time.sleep(0.05)        # a probe past its check may still land
        count = len(ran)
        time.sleep(0.1)
        assert len(ran) == count
    finally:
        gate.finish()
        prober.join(timeout=5)
    assert not prober.is_alive()
    assert [ms for _, ms in samples] == [1.0] * len(ran)


def test_no_probe_when_a_send_is_due_within_the_guard(monkeypatch):
    ran = []
    monkeypatch.setattr(pace, "probe", lambda: ran.append(1) or 1.0)
    gate = load.IdleGate()
    due = time.perf_counter() + 0.2
    done = threading.Event()

    def sender() -> None:
        gate.asleep(due)
        done.wait(timeout=5)
        gate.awake()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for t in threads:
        t.start()
    prober = threading.Thread(target=gate.probe_while_idle, args=([],),
                              daemon=True)
    # start probing only once the due time is inside the guard
    time.sleep(0.2 - load.IdleGate.GUARD_S / 2)
    prober.start()
    time.sleep(0.1)
    done.set()
    for t in threads:
        t.join(timeout=5)
    gate.finish()
    prober.join(timeout=5)
    assert not prober.is_alive()
    assert ran == []
