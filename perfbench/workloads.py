"""The benchmark's workloads, driven through the public harness API.

Each workload is three phases, timed separately by the runner:

- ``setup(seed)``: construction, settle and the initial election, up to
  the first submit (``setup_s``);
- ``drive(state)``: the timed section (``wall_s``);
- ``outcome(state)``: untimed — simulated metrics, exact counts and the
  correctness checks.

The program receives only a :class:`~repro.harness.runspec.RunSpec`
and the arrivals its clients generate from the spec's seed.  Every
deployment records deliveries so the atomic-broadcast checks can run;
:class:`Ledger` wraps each group's ``submit`` to learn which requests
were attempted, refused and acknowledged.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core import AcuerdoCluster
from repro.harness import table1
from repro.harness.factory import build_from_spec, settle
from repro.harness.runspec import RunSpec
from repro.harness.shardsweep import farm_group_config
from repro.shard import ShardedDeployment, aggregate_client
from repro.sim.engine import ms, us
from repro.workloads.closedloop import ClosedLoopClient
from repro.workloads.openloop import OpenLoopClient

#: Simulated length of the timed section of each workload.
FIG8_SIM_MS = {"acuerdo": 5.0, "zookeeper": 160.0}
FARM_SIM_MS = 5.0
FAILOVER_KILLS = 6
FAILOVER_KILL_PERIOD_MS = 8.0

#: Kill periods without any leader after which the schedule gives up:
#: the group is not recovering (see NOTES.md, "Known defect"), and its
#: requests count as failed.
FAILOVER_PATIENCE = 2


class Ledger:
    """Wraps ``submit`` on consensus groups to record every request's
    payload and submit time, refusals (no leader), and each
    acknowledgment with its latency from the first submit.

    Installed on the instance, so the clients and the deployment call it
    unchanged; it adds one closure per request and no engine event.
    """

    def __init__(self, engine: Any):
        self.engine = engine
        self.attempts = 0
        self.refused = 0
        self.resent = 0
        self.submitted: list = []
        self.submit_times: list[int] = []
        self.acked: list = []
        self.ack_times: list[int] = []
        self.latencies: list[int] = []
        self._inner: dict[int, Callable] = {}

    def track(self, group: Any) -> None:
        inner = group.submit
        self._inner[id(group)] = inner
        submitted, submit_times, engine = (self.submitted, self.submit_times,
                                           self.engine)

        def submit(payload, size_bytes, on_commit=None):
            self.attempts += 1
            submitted.append(payload)
            submit_times.append(engine.now)
            ok = inner(payload, size_bytes,
                       self._on_ack(payload, engine.now, on_commit))
            if not ok:
                self.refused += 1
            return ok

        group.submit = submit

    def _on_ack(self, payload: Any, t0: int, on_commit: Any) -> Callable:
        def acked(x):
            now = self.engine.now
            self.acked.append(payload)
            self.ack_times.append(now)
            self.latencies.append(now - t0)
            if on_commit is not None:
                on_commit(x)
        return acked

    def resend(self, group: Any, payload: Any, size_bytes: int,
               due: int) -> None:
        """Re-send a request that vanished with a deposed leader, as a
        client does after a timeout; its latency still counts from
        ``due``, when it was first sent."""
        self.attempts += 1
        self.resent += 1
        if not self._inner[id(group)](payload, size_bytes,
                                      self._on_ack(payload, due, None)):
            self.refused += 1


@dataclass
class State:
    """Everything a workload's phases share.

    Drives advance the simulation through :meth:`run_until`, which runs
    the engine in ``chunk_ns`` slices and calls ``between`` after each
    one when it is set (the runner samples host speed there).  Slicing
    leaves the simulated run unchanged, but a fused event chain that
    crosses a slice boundary is pushed back onto the heap, so every
    repetition slices the same way to keep ``heap_pushes`` exact.
    """

    engine: Any
    groups: list
    ledger: Ledger
    client: Any
    drive: Callable[["State"], None]
    chunk_ns: int
    deployment: Any = None
    extra: dict = field(default_factory=dict)
    between: Any = None

    def run_until(self, until: int) -> None:
        engine, between = self.engine, self.between
        while engine.now < until:
            engine.run(until=min(until, engine.now + self.chunk_ns))
            if between is not None:
                between()


@dataclass
class Outcome:
    """One repetition's results (host times are added by the runner)."""

    attempted: int
    failed: int
    #: Simulated results: sorted latencies (ns), acknowledgments inside
    #: the offered-load window, its length, and the longest gap in it.
    latencies: list
    window_commits: int
    window_ns: int
    longest_gap_ns: int
    counts: dict
    problems: list
    notes: list


# ------------------------------------------------------------------ fig8


def _fig8_setup(system: str, seed: int) -> State:
    spec = RunSpec(system=system, n=3, payload_bytes=1000, window=32,
                   seed=seed, duration_ms=FIG8_SIM_MS[system])
    engine = spec.make_engine()
    group = build_from_spec(spec, engine, record_deliveries=True)
    settle(group)
    ledger = Ledger(engine)
    ledger.track(group)
    client = ClosedLoopClient(group, window=spec.window,
                              message_size=spec.payload_bytes, warmup=50)

    def drive(st: State) -> None:
        t0 = st.engine.now
        st.client.start()
        st.run_until(t0 + ms(spec.duration_ms))
        st.client.stop()
        st.extra["window"] = (t0, st.engine.now)
        # In-flight requests complete; the stopped loop issues no more.
        st.run_until(st.engine.now + ms(5))

    return State(engine, [group], ledger, client, drive,
                 chunk_ns=ms(spec.duration_ms) // 40)


def fig8_acuerdo_setup(seed: int) -> State:
    return _fig8_setup("acuerdo", seed)


def fig8_zookeeper_setup(seed: int) -> State:
    return _fig8_setup("zookeeper", seed)


# ------------------------------------------------------------------ farm


#: The 8-group, 10^5-user farm: the hostperf SHARD_POINT shape.
FARM_SPEC = RunSpec(system="acuerdo", n=3, payload_bytes=64,
                    workload="openloop", duration_ms=FARM_SIM_MS, shards=8,
                    users=100_000, skew=0.99, arrival_rate=500_000.0)


def farm_setup(seed: int) -> State:
    spec = FARM_SPEC.replace(seed=seed)
    engine = spec.make_engine()
    dep = ShardedDeployment(engine, system=spec.system, shards=spec.shards,
                            n=spec.n, record_deliveries=True,
                            group_config=farm_group_config(spec))
    dep.settle()
    ledger = Ledger(engine)
    for _g, group in dep.local_groups():
        ledger.track(group)
    client = aggregate_client(dep, users=spec.users,
                              rate_rps=spec.arrival_rate, skew=spec.skew,
                              message_size=spec.payload_bytes)

    def drive(st: State) -> None:
        t0 = st.engine.now
        st.client.start()
        st.run_until(t0 + ms(spec.duration_ms))
        st.client.stop()
        st.extra["window"] = (t0, st.engine.now)
        st.run_until(t0 + ms(spec.duration_ms) + ms(1))

    return State(engine, [g for _i, g in dep.local_groups()], ledger, client,
                 drive, chunk_ns=ms(spec.duration_ms) // 40, deployment=dep)


# -------------------------------------------------------------- failover


def failover_setup(seed: int) -> State:
    spec = RunSpec(system="acuerdo", n=5, payload_bytes=10,
                   workload="openloop", seed=seed, check_invariants=True,
                   duration_ms=FAILOVER_KILLS * FAILOVER_KILL_PERIOD_MS)
    engine = spec.make_engine()
    cluster = AcuerdoCluster(engine, spec.n, record_deliveries=True)
    # As repro.harness.table1 does: the cold-start election runs for
    # real (no preseeded leader), then the highest-id replicas become
    # long-latency nodes.
    cluster.start()
    engine.run(until=ms(1))
    for node_id in sorted(cluster.node_ids, reverse=True)[:table1.DEFAULT_SLOW_NODES[spec.n]]:
        node = cluster.nodes[node_id]
        node.config.poll_interval_ns = table1.SLOW_POLL_NS
        node.config.poll_jitter_ns = table1.SLOW_POLL_NS
    ledger = Ledger(engine)
    ledger.track(cluster)
    client = OpenLoopClient(cluster, period_ns=us(5),
                            message_size=spec.payload_bytes)

    def drive(st: State) -> None:
        engine, ledger = st.engine, st.ledger
        period = ms(FAILOVER_KILL_PERIOD_MS)
        t0 = engine.now
        st.client.start()
        slept = leaderless = 0
        last_wake = engine.now
        while slept < FAILOVER_KILLS and leaderless < FAILOVER_PATIENCE:
            st.run_until(engine.now + period)
            leader = cluster.leader_id()
            if leader is None:
                leaderless += 1
                continue
            leaderless = 0
            cluster.nodes[leader].deschedule(table1.SLEEP_NS)
            last_wake = engine.now + table1.SLEEP_NS
            slept += 1
        st.extra["leaderless_periods"] = leaderless
        st.run_until(engine.now + 2 * period)
        st.client.stop()
        st.extra["window"] = (t0, engine.now)
        # Let the last deposed leader wake and the group quiesce.
        st.run_until(max(engine.now, last_wake) + ms(1))
        # Acuerdo may lose what a deposed leader broadcast but no new
        # leader holds; those requests were never acknowledged and are
        # delivered nowhere, so the client re-sends them.
        delivered = set()
        for seq in cluster.deliveries.sequences.values():
            delivered.update(seq)
        acked = set(ledger.acked)
        due = dict(zip(ledger.submitted, ledger.submit_times))
        for p in ledger.submitted:
            if p not in acked and p not in delivered:
                ledger.resend(cluster, p, spec.payload_bytes, due[p])
        st.run_until(engine.now + ms(5))

    return State(engine, [cluster], ledger, client, drive,
                 chunk_ns=ms(FAILOVER_KILL_PERIOD_MS) // 8)


# --------------------------------------------------------------- outcome


def _rank(n: int, p: float) -> int:
    """Index of the nearest-rank ``p`` percentile of ``n`` samples."""
    return min(n - 1, max(0, int(p / 100.0 * n)))


def tail_percentile(n: int) -> float:
    """The highest of a fixed ladder of percentiles that leaves at least
    ten samples beyond it (p50 when even that does not)."""
    for p in (99.99, 99.9, 99.0, 95.0, 90.0):
        if n - 1 - _rank(n, p) >= 10:
            return p
    return 50.0


def latencies_ns(st: State) -> list:
    """Closed loop: client-observed latency, both network hops included
    (the Fig. 8 y-axis).  Open loop: from the moment a request was due,
    which is when the client sent it."""
    if isinstance(st.client, ClosedLoopClient):
        return list(st.client.latencies)
    return list(st.ledger.latencies)


def check_groups(st: State) -> list:
    """The per-run correctness checks; returns the problems found."""
    problems = []
    delivered: set = set()
    for g, group in enumerate(st.groups):
        rec = group.deliveries
        try:
            rec.check_total_order()
        except AssertionError as e:
            problems.append(f"group {g}: {e}")
        try:
            rec.check_no_duplication()
        except AssertionError as e:
            problems.append(f"group {g}: {e}")
        for seq in rec.sequences.values():
            delivered.update(seq)
    lost = [p for p in st.ledger.acked if p not in delivered]
    if lost:
        problems.append(f"{len(lost)} acknowledged request(s) never "
                        f"delivered, first {lost[0]!r}")
    monitors = st.engine.monitors
    if monitors is not None:
        for v in monitors.finish():
            problems.append(f"monitor violation: {v}")
    return problems


def snapshot(st: State) -> dict:
    """Cumulative exact counts of the run so far; the runner takes one
    before the timed section so per-commit figures cover only it."""
    engine = st.engine
    out = {
        "events": engine.events_executed,
        "heap_pushes": engine.heap_pushes,
        "elections": len(engine.trace.series("acuerdo.election_duration_ns")),
        "monitor_events": (engine.monitors.events_seen
                           if engine.monitors is not None else 0),
    }
    out.update(engine.trace.counters)
    out["ring_stalls"] = sum(ring.stalls for group in st.groups
                             for ring in getattr(group, "rings", {}).values())
    for group in st.groups:
        for k, v in group.substrate_counters().items():
            out[k] = out.get(k, 0) + v
    return out


def outcome(st: State) -> Outcome:
    engine, ledger = st.engine, st.ledger
    committed = len(set(ledger.acked))
    lo, hi = st.extra["window"]
    times = [t for t in ledger.ack_times if lo <= t <= hi]
    before, after = st.extra["before"], snapshot(st)
    elections = engine.trace.series("acuerdo.election_duration_ns")
    elections = elections[before["elections"]:]
    counts = {
        "commits": committed, "attempts": ledger.attempts,
        "refused": ledger.refused, "resent": ledger.resent,
        "election_ms_median": (statistics.median(elections) / 1e6
                               if elections else 0.0),
        "total": after,
        "drive": {k: v - before.get(k, 0) for k, v in after.items()},
    }
    if st.deployment is not None:
        dep = st.deployment
        total = dep.total_submitted()
        counts["shard_submitted"] = list(dep.submitted)
        counts["hottest_share"] = max(dep.submitted) / total if total else 0.0
    problems = check_groups(st)
    counts["violations"] = (engine.monitors.violation_count
                            if engine.monitors is not None else 0)
    # Operations attempted: every request the clients issued.  Failed:
    # requests never acknowledged, and, when a check fails, every
    # operation of the repetition, because none of its results can be
    # trusted.  Refused submits and re-sends are counted separately.
    issued = st.client.sent
    failed = issued - committed
    if problems:
        failed = issued
    notes = []
    leaderless = [g for g, group in enumerate(st.groups)
                  if group.leader_id() is None]
    if leaderless:
        notes.append(f"no leader at the end of the run in group(s) "
                     f"{leaderless}; {issued - committed} request(s) never "
                     "committed")
    return Outcome(attempted=issued, failed=failed,
                   latencies=sorted(latencies_ns(st)),
                   window_commits=len(times), window_ns=hi - lo,
                   longest_gap_ns=max((b - a for a, b in zip(times, times[1:])),
                                      default=0),
                   counts=counts, problems=problems, notes=notes)


def sim_metrics(outs: list) -> tuple[dict, str]:
    """The simulated end-to-end metrics of a run, pooled over the
    repetitions of its distinct sub-seeds, and a note saying which tail
    percentile was used on how many samples."""
    lats = sorted(x for out in outs for x in out.latencies)
    n = len(lats)
    p_tail = tail_percentile(n)
    sim = {
        "sim_throughput_rps": (sum(o.window_commits for o in outs)
                               / (sum(o.window_ns for o in outs) / 1e9)),
        "sim_p50_us": lats[_rank(n, 50.0)] / 1e3 if lats else 0.0,
        "sim_tail_us": lats[_rank(n, p_tail)] / 1e3 if lats else 0.0,
        "sim_downtime_ms": statistics.mean(o.longest_gap_ns for o in outs) / 1e6,
    }
    note = (f"sim_tail_us is p{p_tail:g} of {n} samples "
            f"({n - 1 - _rank(n, p_tail)} beyond it)")
    return sim, note


def digest(out: Outcome) -> str:
    """Digest of every simulated value and exact count of a repetition;
    two repetitions of one seed must agree on it."""
    blob = repr((out.latencies, out.window_commits, out.window_ns,
                 out.longest_gap_ns, sorted(out.counts.items()),
                 out.attempted, out.failed))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Workload:
    """A named workload; why each exists is in BENCHMARK.json and NOTES.md.

    A run pools its simulated metrics over ``subseeds`` seeds derived
    from the benchmark's seed, so that one seed's luck moves them less.
    """

    name: str
    setup: Callable[[int], State]
    subseeds: int

    def seed_of(self, seed: int, rep: int) -> int:
        """The seed of a run's ``rep``-th repetition."""
        return seed * 1000 + rep % self.subseeds


WORKLOADS = {
    w.name: w for w in (
        Workload("fig8-acuerdo", fig8_acuerdo_setup, 6),
        Workload("fig8-zookeeper", fig8_zookeeper_setup, 4),
        Workload("farm-zipf", farm_setup, 6),
        Workload("failover-acuerdo", failover_setup, 2),
    )
}
