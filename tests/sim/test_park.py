"""Unit tests for poll-elision parking (doorbells, horizons, wakes)."""

import pytest

from repro.sim import Engine, Process, ProcessConfig, us


class IdleParker(Process):
    """Always-idle process: parks whenever allowed, records poll times."""

    def __init__(self, engine, node_id=0, config=None, deadline_in=None):
        super().__init__(engine, node_id, config)
        self.polls = []
        self.deadline_in = deadline_in

    def on_poll(self):
        self.polls.append(self.engine.now)

    def park_ready(self):
        return True

    def park_deadline(self):
        if self.deadline_in is None:
            return None
        return self.engine.now + self.deadline_in


def _cfg(allow_park, **kw):
    kw.setdefault("poll_interval_ns", 100)
    kw.setdefault("poll_jitter_ns", 50)
    return ProcessConfig(allow_park=allow_park, **kw)


def _run(allow_park, ring=None, until=us(50), deadline_in=None, **cfg_kw):
    e = Engine(seed=9)
    p = IdleParker(e, config=_cfg(allow_park, **cfg_kw), deadline_in=deadline_in)
    p.start()
    if ring is not None:
        at, fn = ring
        e.schedule_at(at, fn, p)
    e.run(until=until)
    return p, e


def test_doorbell_wakes_on_baseline_schedule():
    """A doorbell wake lands exactly on the tick the unparked loop would
    have polled at — same RNG stream, same jitter draws."""
    ring_at = 12_345
    baseline, _ = _run(False, ring=(ring_at, lambda p: p.doorbell(ring_at)))
    parked, _ = _run(True, ring=(ring_at, lambda p: p.doorbell(ring_at)))
    assert parked.polls[-1] in baseline.polls
    assert parked.polls[-1] == min(t for t in baseline.polls if t >= ring_at)
    # Only the first poll (pre-park) and the wake poll executed.
    assert len(parked.polls) < len(baseline.polls)


def test_doorbell_only_park_sleeps_indefinitely():
    p, e = _run(True)
    assert p.parked
    assert len(p.polls) == 1  # the poll that parked; nothing after


def test_horizon_wake_follows_deadline():
    """With a 5 us deadline the parked loop polls once per horizon, on
    ticks the unparked schedule also hits."""
    baseline, _ = _run(False, deadline_in=us(5))
    parked, _ = _run(True, deadline_in=us(5))
    assert set(parked.polls) <= set(baseline.polls)
    # One horizon wake per ~5 us, not one poll per ~125 ns.
    assert 5 <= len(parked.polls) <= 15
    gaps = [b - a for a, b in zip(parked.polls, parked.polls[1:])]
    assert all(g >= us(5) for g in gaps)


def test_crash_while_parked_stays_silent():
    def crash_then_ring(p):
        p.crash()
        p.doorbell(p.engine.now)
    p, _ = _run(True, ring=(us(10), crash_then_ring), until=us(30))
    assert p.crashed
    assert all(t <= us(10) for t in p.polls)


def test_request_poll_wakes_parked_loop():
    ring_at = 7_777
    baseline, _ = _run(False, ring=(ring_at, lambda p: p.request_poll()))
    parked, _ = _run(True, ring=(ring_at, lambda p: p.request_poll()))
    assert parked.polls[-1] == min(t for t in baseline.polls if t >= ring_at)


def test_slow_node_wakes_on_stretched_schedule():
    """speed_factor stretches the poll gaps; the parked wake must land
    on the stretched baseline schedule, not the nominal one."""
    ring_at = 23_456
    kw = dict(speed_factor=10.0)
    baseline, _ = _run(False, ring=(ring_at, lambda p: p.doorbell(ring_at)), **kw)
    parked, _ = _run(True, ring=(ring_at, lambda p: p.doorbell(ring_at)), **kw)
    assert parked.polls[-1] == min(t for t in baseline.polls if t >= ring_at)


def test_out_of_poll_cpu_charge_rederives_schedule():
    """Out-of-poll work that advances busy_until must ring request_poll;
    the woken loop then reproduces the unparked busy_until + 1 fallback
    schedule exactly: it parks through the busy CPU with that tick
    pinned, and stays parked once the CPU drains."""
    def stall_and_ring(p):
        p.cpu.stall(us(5))
        p.request_poll()

    baseline, _ = _run(False, ring=(1_000, stall_and_ring), until=us(3))
    parked, eng = _run(True, ring=(1_000, stall_and_ring), until=us(3))
    # Parked through the busy CPU, first tick pinned on the baseline.
    assert parked.parked
    assert parked._park_pin == baseline._poll_event.time == 1_000 + us(5) + 1
    assert [t for t in baseline.polls if t >= 1_000] == \
        [t for t in parked.polls if t >= 1_000]
    eng.run(until=us(20))
    assert parked.parked              # CPU drained, loop parked again


def _stall_then(allow_park, at, fn, until=us(20), **kw):
    """A 5 us out-of-poll stall at 1000 ns (ringing request_poll), then
    ``fn(p)`` at ``at``.  Parked, the loop's poll after the stall parks
    with its next tick pinned at busy_until + 1 = 6001."""
    def stall_and_ring(p):
        p.cpu.stall(us(5))
        p.request_poll()

    e = Engine(seed=9)
    p = IdleParker(e, config=_cfg(allow_park), **kw)
    p.start()
    e.schedule_at(1_000, stall_and_ring, p)
    e.schedule_at(at, fn, p)
    e.run(until=until)
    return p, e


PIN = 1_000 + us(5) + 1


@pytest.mark.parametrize("at, posted, observed", [
    (3_000, 3_000, "pin"),             # ring before the pinned tick
    (PIN, "park", "pin"),              # at it, posted at the park
    (PIN, "after park", "next"),       # at it, posted after the park
    (7_000, 7_000, "replay"),          # after it: replay from the pin
])
def test_pinned_tick_wakes_on_baseline_schedule(at, posted, observed):
    baseline, _ = _stall_then(False, at, lambda p: None)
    ticks = baseline.polls
    park_at = min(t for t in ticks if t >= 1_000)
    assert min(t for t in ticks if t > park_at) == PIN
    posted_at = {"park": park_at, "after park": park_at + 1}.get(posted, posted)
    parked, _ = _stall_then(True, at, lambda p: p.doorbell(posted_at))
    expected = {"pin": PIN,
                "next": min(t for t in ticks if t > PIN),
                "replay": min(t for t in ticks if t >= at)}[observed]
    assert parked.polls[-2:] == [park_at, expected]
    assert parked.parked and parked._park_pin is None


def test_deschedule_rings_parked_loop():
    """deschedule() is an out-of-poll CPU charge: a parked loop must not
    keep polling on its pre-stall schedule while off-CPU."""
    def first_poll_after_ring(allow_park):
        e = Engine(seed=9)
        p = IdleParker(e, config=_cfg(allow_park))
        p.start()
        e.schedule_at(1_000, p.deschedule, us(5))
        e.schedule_at(1_500, p.doorbell, 1_500)
        e.run(until=us(20))
        return min(t for t in p.polls if t >= 1_500)

    assert first_poll_after_ring(True) == first_poll_after_ring(False) == 6_001


class FixedDeadline(IdleParker):
    """Parks on an absolute deadline the test moves."""

    deadline = None

    def park_deadline(self):
        return self.deadline


def test_horizon_stays_armed_across_wakes():
    e = Engine(seed=9)
    p = FixedDeadline(e, config=_cfg(True))
    p.deadline = us(20)
    p.start()
    e.run(until=us(2))
    horizon = p._horizon_event
    assert p.parked and horizon.time == us(20)

    # Same deadline: the woken poll re-parks without a heap push.
    e.schedule_at(us(3), p.doorbell, us(3))
    e.run(until=us(3))
    pushes = e.heap_pushes
    e.run(until=us(4))
    assert p.parked and len(p.polls) == 2
    assert p._horizon_event is horizon and e.heap_pushes == pushes

    # A changed deadline replaces the event.
    p.deadline = us(30)
    p.request_poll()
    e.run(until=us(5))
    assert horizon.cancelled and p._horizon_event.time == us(30)

    # A doorbell-only park drops it.
    horizon = p._horizon_event
    p.deadline = None
    p.request_poll()
    e.run(until=us(6))
    assert p.parked and horizon.cancelled and p._horizon_event is None


def test_crash_clears_pin_and_horizon():
    p, e = _stall_then(True, 2_000, lambda p: None, until=3_000,
                       deadline_in=us(8))
    horizon = p._horizon_event
    assert p.parked and p._park_pin == PIN and horizon is not None
    p.crash()
    assert p._park_pin is None and p._horizon_event is None
    assert horizon.cancelled and not p.parked


def test_deschedules_disable_parking():
    e = Engine(seed=9)
    cfg = ProcessConfig(poll_interval_ns=100, poll_jitter_ns=50,
                        deschedule_mean_interval_ns=us(5), allow_park=True)
    p = IdleParker(e, config=cfg)
    p.start()
    e.run(until=us(20))
    assert not p.parked  # deschedule draws share the RNG stream


def test_allow_park_override_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_PARK", "0")
    p, _ = _run(True)
    assert p.parked
    monkeypatch.setenv("REPRO_PARK", "1")
    p, _ = _run(None)
    assert p.parked
    monkeypatch.setenv("REPRO_PARK", "0")
    p, _ = _run(None)
    assert not p.parked


def test_parking_preserves_rng_stream_for_later_draws():
    """After a wake, subsequent real polls continue the identical jitter
    sequence: every parked-run poll time appears in the baseline run."""
    ring_at = 3_333

    class WakesThenRuns(IdleParker):
        def park_ready(self):
            # Park only before the doorbell; afterwards poll for real.
            return self.engine.now < ring_at

    def run(allow):
        e = Engine(seed=9)
        p = WakesThenRuns(e, config=_cfg(allow))
        p.start()
        e.schedule_at(ring_at, p.doorbell, ring_at)
        e.run(until=us(10))
        return p.polls

    baseline, parked = run(False), run(True)
    assert [t for t in baseline if t >= ring_at] == \
        [t for t in parked if t >= ring_at]


# --------------------------------------------------------------- engine side


def test_schedule_rejects_fractional_timestamps():
    e = Engine()
    with pytest.raises(ValueError):
        e.schedule_at(1.5, lambda: None)
    with pytest.raises(ValueError):
        e.schedule(2.7, lambda: None)
    # Integral floats are accepted and coerced.
    ev = e.schedule_at(3.0, lambda: None)
    assert ev.time == 3


def test_events_executed_counts_lifetime():
    e = Engine()
    for i in range(5):
        e.schedule(i + 1, lambda: None)
    e.run()
    assert e.events_executed == 5
    e.schedule(1, lambda: None)
    assert e.step() is True
    assert e.events_executed == 6
    assert e.step() is False
    assert e.events_executed == 6
