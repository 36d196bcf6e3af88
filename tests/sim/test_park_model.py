"""Property test of the poll-elision (parking) model.

A parked process must observe every input at the same simulated time
as the unparked loop it stands in for.  Each example builds a scripted
process with random poll base, jitter (including 0 and widths whose
rejection sampling draws more than 8 bits), speed factor, CPU charges
inside ``on_poll``, deposits with their ``posted_at`` (some landing
exactly on a poll tick), ``request_poll`` state changes, timer deadlines
and deschedules, runs it parked and unparked, and compares the polls
that observed anything.

One case is outside the model and filtered out: an input that lands on
the exact nanosecond of a poll tick, posted after the tick's poll event
would have been created, while something *else* woke the loop for that
tick.  The materialised poll then sorts after the input and observes it
one tick early (see DESIGN.md, "Poll elision", and
``test_tie_with_another_wake_source_is_outside_the_model``).

Tier-1 runs a small derandomized budget; ``--hypothesis-profile=ci``
runs the active profile's budget instead.
"""

from __future__ import annotations

import bisect

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from repro.sim import Engine, Process, ProcessConfig, us

HORIZON = us(10)

if settings.default is settings.get_profile("ci"):
    BUDGET = settings(deadline=None)
else:
    BUDGET = settings(max_examples=40, derandomize=True, deadline=None)


class Scripted(Process):
    """Acts only on inputs: deposits, local requests and due timers.
    Each observing poll charges ``charge_ns`` per input to the CPU."""

    def __init__(self, engine, config, timers, charge_ns):
        super().__init__(engine, 0, config)
        self.inbox: list = []
        self.requests = 0
        self.timers = sorted(timers)
        self.charge_ns = charge_ns
        self.polls: list[int] = []
        self.seen: list[tuple] = []

    def on_poll(self):
        now = self.engine.now
        self.polls.append(now)
        got = sorted(self.inbox)
        self.inbox.clear()
        if self.requests:
            got.append(("request", self.requests))
            self.requests = 0
        while self.timers and self.timers[0] <= now:
            got.append(("timer", self.timers.pop(0)))
        if got:
            self.seen.append((now, tuple(got)))
            if self.charge_ns:
                cpu = self.cpu
                cpu.busy_until = max(cpu.busy_until, now) + int(
                    self.charge_ns * len(got) * cpu.speed_factor)

    def park_ready(self):
        return not (self.inbox or self.requests
                    or (self.timers and self.timers[0] <= self.engine.now))

    def park_deadline(self):
        return self.timers[0] if self.timers else None

    def deposit(self, ident, posted_at):
        self.inbox.append(ident)
        self.doorbell(posted_at)

    def local_request(self):
        self.requests += 1
        self.request_poll()


def run(scn, allow_park):
    e = Engine(seed=scn["seed"])
    cfg = ProcessConfig(poll_interval_ns=scn["base"], poll_jitter_ns=scn["jitter"],
                        speed_factor=scn["speed"], allow_park=allow_park)
    p = Scripted(e, cfg, scn["timers"], scn["charge"])
    for i, (post, land) in enumerate(scn["deposits"]):
        # Delivery is scheduled at the post time, like a QP write.
        e.schedule_at(post, lambda i=i, post=post, land=land: e.schedule_at(
            land, p.deposit, i, post))
    for at in scn["requests"]:
        e.schedule_at(at, p.local_request)
    for at, dur in scn["deschedules"]:
        e.schedule_at(at, p.deschedule, dur)
    p.start()
    e.run(until=2 * HORIZON)
    return p


def snap(t, ticks):
    """The first tick >= t (t itself past the last tick)."""
    i = bisect.bisect_left(ticks, t)
    return ticks[i] if i < len(ticks) else t


times = st.integers(0, HORIZON)


@st.composite
def scenarios(draw):
    scn = {
        "seed": draw(st.integers(0, 2**16)),
        "base": draw(st.sampled_from([3, 7, 100, 200, 333])),
        "jitter": draw(st.sampled_from([0, 1, 50, 100, 255, 300, 1000])),
        "speed": draw(st.sampled_from([1.0, 1.0, 1.5, 3.0])),
        "charge": draw(st.sampled_from([0, 40, 500, 3000])),
        "requests": draw(st.lists(times, max_size=4)),
        "deschedules": draw(st.lists(st.tuples(times, st.integers(1, us(4))),
                                     max_size=2)),
    }
    deposits = draw(st.lists(st.tuples(times, st.integers(0, 2000),
                                       st.sampled_from([None, "hit", "miss"])),
                             max_size=10))
    timers = draw(st.lists(st.tuples(st.integers(1, HORIZON), st.booleans()),
                           max_size=3))
    # Snap some landings and timers onto ticks of an input-free
    # unparked run, so exact ties occur.
    scn["deposits"], scn["timers"] = [], []
    ticks = run(scn, False).polls
    for post, delay, tie in deposits:
        land = post + delay
        if tie:
            # Posted before the previous tick, the unparked poll at the
            # landing tick observes it ("hit"); after, it misses it.
            land = snap(land, ticks)
            i = bisect.bisect_left(ticks, land)
            prev = ticks[i - 1] if 0 < i < len(ticks) else 0
            post = draw(st.integers(max(0, prev - 2000), prev) if tie == "hit"
                        else st.integers(prev + 1, max(prev + 1, land)))
        scn["deposits"].append((post, land))
    scn["timers"] = [snap(t, ticks) if exact else t for t, exact in timers]
    return scn


def shared_tie(scn, ticks):
    """True iff a deposit lands on a tick posted after the previous tick
    (the unparked poll at that tick misses it) while another wake source
    falls between the previous tick and it."""
    sources = ([land for _post, land in scn["deposits"]] + scn["requests"]
               + scn["timers"] + [at for at, _dur in scn["deschedules"]])
    index = {t: i for i, t in enumerate(ticks)}
    for post, land in scn["deposits"]:
        i = index.get(land)
        if i is None:
            continue
        prev = ticks[i - 1] if i else 0
        if post > prev and sum(prev < t <= land for t in sources) > 1:
            return True
    return False


@BUDGET
@given(scenarios())
def test_parked_loop_observes_inputs_on_the_unparked_schedule(scn):
    baseline = run(scn, False)
    assume(not shared_tie(scn, baseline.polls))
    ticks = set(baseline.polls)
    if any(land in ticks for _post, land in scn["deposits"]):
        event("a deposit lands exactly on a tick")
    parked = run(scn, True)
    assert parked.seen == baseline.seen
    # Every poll the parked loop does run is one the baseline also runs.
    assert set(parked.polls) <= set(baseline.polls)


@pytest.mark.xfail(strict=True, reason="same-nanosecond tie with another wake source")
def test_tie_with_another_wake_source_is_outside_the_model():
    """Ticks at 3, 6, 9, ...  A timer at 6 and a deposit posted at 6
    that lands at 6: the unparked poll at 6 was created at 3 and runs
    before the deposit's delivery, so it sees only the timer.  Parked,
    the horizon at 6 materialises that poll after the delivery event,
    which it then also observes."""
    scn = {"seed": 0, "base": 3, "jitter": 0, "speed": 1.0, "charge": 0,
           "requests": [], "deschedules": [], "deposits": [(6, 6)], "timers": [6]}
    baseline = run(scn, False)
    assert shared_tie(scn, baseline.polls)
    assert run(scn, True).seen == baseline.seen
