"""Poll elision must be invisible: parked runs are bit-identical.

The doorbell/parking machinery fast-forwards idle poll loops, but every
virtual poll tick draws the same jitter from the same RNG stream as the
real schedule would, so the observable run — trace fingerprint, delivery
order and timing, tracer summary — must be *identical* with parking on
(the default) and off (``REPRO_PARK=0``).  Executed events, the host-cost
proxy, are the only thing allowed to change, and only downward.
"""

from __future__ import annotations

import os

import pytest

from repro.harness.factory import build_from_spec, settle
from repro.harness.runspec import RunSpec
from repro.sim.engine import Engine, ms, us
from tests.substrate.test_golden_fingerprints import GOLDEN_FINGERPRINTS

SYSTEMS = sorted(GOLDEN_FINGERPRINTS)


def run_observed(name, n=3, seed=7, messages=24):
    """The golden-fingerprint workload, with delivery latencies and the
    tracer summary captured alongside the fingerprint."""
    engine = Engine(seed=seed)
    system = build_from_spec(RunSpec(system=name, n=n), engine)
    settle(system)
    state = {"submitted": 0}
    submit_ns: dict = {}
    deliveries: list = []

    system.delivery_listeners.append(
        lambda node_id, payload: deliveries.append((node_id, payload, engine.now)))

    def pump():
        if state["submitted"] < messages:
            payload = ("m", state["submitted"])
            if system.submit(payload, 64):
                submit_ns[payload] = engine.now
                state["submitted"] += 1
            engine.schedule(us(20), pump)

    engine.schedule(0, pump)
    engine.run(until=engine.now + ms(30))
    latencies = tuple((node, payload, t - submit_ns[payload])
                      for node, payload, t in deliveries if payload in submit_ns)
    observed = (
        engine.trace.fingerprint(),
        tuple(sorted(system.deliveries.counts.items())),
        system.leader_id(),
        latencies,
        tuple(sorted(engine.trace.summary().items())),
    )
    return observed, engine.events_executed


def run_with_park(flag, name):
    prior = os.environ.get("REPRO_PARK")
    os.environ["REPRO_PARK"] = flag
    try:
        return run_observed(name)
    finally:
        if prior is None:
            os.environ.pop("REPRO_PARK", None)
        else:
            os.environ["REPRO_PARK"] = prior


@pytest.mark.parametrize("name", SYSTEMS)
def test_parked_run_is_bit_identical(name):
    parked, parked_events = run_with_park("1", name)
    unparked, unparked_events = run_with_park("0", name)
    assert parked == unparked
    # Parking may only remove events, never add or reorder them.
    assert parked_events <= unparked_events


def test_parking_elides_events_overall():
    """Across the whole suite the elision must actually bite (a single
    protocol may be too busy to park much, but not all of them)."""
    totals = {"1": 0, "0": 0}
    for name in SYSTEMS:
        for flag in totals:
            totals[flag] += run_with_park(flag, name)[1]
    assert totals["1"] < totals["0"]


def monitor_notes(flag, monkeypatch):
    """Every monitor note, with its time, of a 5-replica Acuerdo group
    whose two slow replicas the leader excludes from slot accounting
    under open-loop load."""
    from collections import Counter

    from repro.core.cluster import AcuerdoCluster
    from repro.harness import table1
    from repro.workloads.openloop import OpenLoopClient

    monkeypatch.setenv("REPRO_PARK", flag)
    spec = RunSpec(system="acuerdo", n=5, seed=1, payload_bytes=10,
                   workload="openloop", check_invariants=True)
    engine = spec.make_engine()
    notes: Counter = Counter()
    registry = engine.monitors
    inner = registry.note

    def note(system, kind, node, **fields):
        notes[engine.now, kind, node, repr(sorted(fields.items()))] += 1
        inner(system, kind, node, **fields)

    registry.note = note
    cluster = AcuerdoCluster(engine, spec.n)
    cluster.start()
    engine.run(until=ms(1))
    for node_id in sorted(cluster.node_ids)[-table1.DEFAULT_SLOW_NODES[spec.n]:]:
        cfg = cluster.nodes[node_id].config
        cfg.poll_interval_ns = cfg.poll_jitter_ns = table1.SLOW_POLL_NS
    OpenLoopClient(cluster, period_ns=us(5), message_size=10).start()
    engine.run(until=engine.now + ms(2))
    return notes


def test_parked_monitor_notes_match_unparked(monkeypatch):
    """A leader must not park while an eviction has left its
    slot-release scan due: the scan's slot_release note would land at
    a later poll than in the unparked run.  Same-time notes may swap
    order, so the notes compare as a multiset."""
    parked = monitor_notes("1", monkeypatch)
    assert any(kind == "slot_release" and "admin" in fields
               for _t, kind, _node, fields in parked)
    assert parked == monitor_notes("0", monkeypatch)
