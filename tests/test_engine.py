"""The discrete-event loop."""

import gc
import weakref

import pytest

from repro.simnet.engine import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("late"))
    sim.schedule(1.0, lambda: fired.append("early"))
    sim.run()
    assert fired == ["early", "late"]


def test_ties_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in ("a", "b", "c"):
        sim.schedule(1.0, lambda label=label: fired.append(label))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(3.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [3.5]
    assert sim.now == 3.5


def test_run_until_stops_at_horizon():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    sim.run_until(2.0)
    assert fired == [1]
    assert sim.now == 2.0
    assert sim.pending == 1


def test_run_until_advances_clock_even_when_idle():
    sim = Simulator()
    sim.run_until(7.0)
    assert sim.now == 7.0


def test_events_can_schedule_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(1.0, lambda: fired.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == 2.0


def test_stop_halts_loop():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
    sim.schedule(2.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1]


def test_every_installs_periodic_callback():
    sim = Simulator()
    ticks = []
    sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run_until(3.5)
    assert ticks == [1.0, 2.0, 3.0]


def test_every_with_start_delay():
    sim = Simulator()
    ticks = []
    sim.every(1.0, lambda: ticks.append(sim.now), start_delay=0.25)
    sim.run_until(2.5)
    assert ticks == [0.25, 1.25, 2.25]


def test_scheduling_into_past_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(ValueError):
        sim.run_until(0.1)
    with pytest.raises(ValueError):
        sim.every(0.0, lambda: None)


def test_processed_counter():
    sim = Simulator()
    for _ in range(3):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.processed == 3


def test_rescheduling_callbacks_do_not_pin_the_simulator():
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulator()
        sim.every(1.0, lambda: None)
        sim.schedule_batch(5.0, [lambda: None, lambda: None])
        sim.run_until(2.5)
        assert sim.pending == 2
        alive = weakref.ref(sim)
        del sim
        assert alive() is None
    finally:
        if enabled:
            gc.enable()
