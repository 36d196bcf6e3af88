"""Run one workload of the repository benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig8-acuerdo --seed 1 --seconds 20 --trace 0

The workload runs on a few sub-seeds derived from ``--seed``.  Each
repetition is a fresh deployment of one sub-seed, cycling through them,
until ``--seconds`` have passed and every sub-seed has run at least
twice.  Repetitions of one sub-seed must produce the same digest of
simulated values and exact counts; a mismatch fails the run as
nondeterminism.  Simulated metrics pool the sub-seeds; host times are
medians over all repetitions.

``--trace 0`` prints the end-to-end metrics, measured with tracing off:
medians over the repetitions, plus one separate ``tracemalloc``
repetition for the heap high-water mark.  ``--trace 1`` prints the
per-layer metrics: untraced repetitions give the base wall time, then
one repetition runs under :class:`tracing.LayerTracer`; its spans are
written to ``.perfbench/``.

Lines before the last are JSON detail records (host, calibration,
the tail percentile used, digests, the traced time accounting).  The
last line is the result object.  The exit code is 0 only when every
check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import sys
import tracemalloc
from heapq import heappop, heappush
from time import perf_counter

HERE = pathlib.Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

MIN_SETUPS = 9
#: Iterations of the calibration loop per speed sample (about a
#: millisecond): short enough to take one after every slice of the
#: timed section.
CAL_ITERATIONS = 1500


class _CalNode:
    __slots__ = ("n", "seen")

    def __init__(self) -> None:
        self.n = 0
        self.seen: dict = {}

    def step(self, t: int) -> int:
        self.n += 1
        self.seen[t & 255] = t
        return t + (self.n & 7)


def calibration_seconds() -> float:
    """One timing of a fixed pure-Python loop made of what the simulator
    spends its time on: heap pushes and pops of tuples, dict updates,
    attribute reads and method calls."""
    t0 = perf_counter()
    node, heap, t = _CalNode(), [], 0
    for i in range(CAL_ITERATIONS):
        heappush(heap, (t + (i * 7919) % 1000, i, node))
        t, _i, nd = heappop(heap) if len(heap) > 16 else (t, i, node)
        t = nd.step(t)
    return perf_counter() - t0


class HostSpeed:
    """Samples host speed between the slices of a timed section.

    A shared host changes speed within seconds, so one calibration
    before a repetition misses what the repetition saw.  After each
    slice this takes one calibration sample; ``units`` adds up each
    slice's seconds over the sample next to it, and ``probe_s`` is the
    time the samples took, which the runner leaves out of ``wall_s``.
    """

    def __init__(self) -> None:
        self.units = 0.0
        self.probe_s = 0.0
        self.samples: list[float] = []
        self._mark = 0.0

    def start(self, t: float) -> None:
        """The timed section began at ``t``."""
        self._mark = t

    def __call__(self) -> None:
        t = perf_counter()
        cal = calibration_seconds()
        self.samples.append(cal)
        self.units += (t - self._mark) / cal
        self._mark = perf_counter()
        self.probe_s += self._mark - t


def host_record() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


def cost_models() -> dict:
    """The injected message delays: the default cost models."""
    from repro.net.tcp import TcpParams
    from repro.rdma.params import RdmaParams

    return {"rdma": RdmaParams().cost_table(), "tcp": TcpParams().cost_table()}


class Rep:
    """One repetition: fresh set-up, the timed section, the outcome."""

    def __init__(self, workload, seed: int, tracer=None, speed=None):
        import workloads as wl

        gc.collect()
        t0 = perf_counter()
        st = workload.setup(seed)
        t1 = perf_counter()
        st.extra["before"] = wl.snapshot(st)
        trace_before = tracer.begin() if tracer is not None else None
        st.between = speed
        t2 = perf_counter()
        if speed is not None:
            speed.start(t2)
        st.drive(st)
        t3 = perf_counter()
        if tracer is not None:
            tracer.end()
            after = tracer.counts()
            self.trace_counts = {k: v - trace_before.get(k, 0)
                                 for k, v in after.items()}
        self.seed = seed
        self.setup_s = t1 - t0
        self.wall_s = t3 - t2 - (speed.probe_s if speed is not None else 0.0)
        self.speed = speed
        self.outcome = wl.outcome(st)
        self.digest = wl.digest(self.outcome)


def heap_rep(workload, seed: int) -> tuple[float, Rep]:
    """A repetition under ``tracemalloc``: the peak traced heap in MB."""
    gc.collect()
    tracemalloc.start()
    try:
        rep = Rep(workload, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20, rep


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload, the ``i``-th repetition on its ``i``-th
    sub-seed (cyclically), until the time budget is spent and every
    sub-seed has run at least twice."""
    t_begin = perf_counter()
    first = workload.seed_of(seed, 0)
    # Lazy imports inside the program run during the first set-up; do
    # them before anything is measured.
    workload.setup(first)
    m: dict = {"reps": [], "timed": [], "peak_mb": None, "tracer": None}
    reps, timed = m["reps"], m["timed"]
    if not trace:
        m["peak_mb"], rep = heap_rep(workload, first)
        reps.append(rep)
    budget = seconds / 2 if trace else seconds
    while len(reps) < 2 * workload.subseeds or perf_counter() - t_begin < budget:
        rep = Rep(workload, workload.seed_of(seed, len(reps)), speed=HostSpeed())
        timed.append(rep)
        reps.append(rep)
    m["setups"] = setups = [r.setup_s for r in timed]
    while len(setups) < MIN_SETUPS:
        gc.collect()
        t0 = perf_counter()
        workload.setup(first)
        setups.append(perf_counter() - t0)
    if trace:
        from tracing import LayerTracer

        with LayerTracer() as tracer:
            m["traced"] = Rep(workload, first, tracer)
        tracer.write(CHECKOUT / ".perfbench" / f"spans-{workload.name}")
        reps.append(m["traced"])
        m["tracer"] = tracer
    return m


def end_to_end(m: dict, sim: dict) -> dict:
    timed = m["timed"]
    return {
        "wall_cal": (statistics.median(r.speed.units for r in timed), "ratio"),
        "setup_s": (statistics.median(m["setups"]), "s"),
        "peak_heap_mb": (m["peak_mb"], "MB"),
        "sim_throughput_rps": (sim["sim_throughput_rps"], "1/s"),
        "sim_p50_us": (sim["sim_p50_us"], "us"),
        "sim_tail_us": (sim["sim_tail_us"], "us"),
        "sim_downtime_ms": (sim["sim_downtime_ms"], "ms"),
    }


def per_layer(m: dict) -> tuple[dict, dict]:
    """The per-layer metrics of the traced repetition, and the traced
    time accounting."""
    from tracing import ENTRY_POINTS

    traced = m["traced"]
    out = traced.outcome
    counts, drive, tc = out.counts, out.counts["drive"], traced.trace_counts
    commits = max(1, counts["commits"])
    self_s = m["tracer"].self_seconds()

    def calls(layer: str) -> int:
        return sum(tc.get(f"{cls}.{name}", 0)
                   for _mod, cls, names in ENTRY_POINTS[layer]
                   for name in names)

    base_wall = statistics.median(r.wall_s for r in m["timed"])
    ring_attempts = tc.get("RingBuffer.try_send", 0) + drive.get("acuerdo.ring_full", 0)
    metrics = {
        "engine.events_per_commit": (drive["events"] / commits, "events/commit"),
        "engine.pushes_per_commit": (drive["heap_pushes"] / commits, "pushes/commit"),
        "engine.self_s": (self_s["engine"], "s"),
        "process.polls_per_commit": (tc["polls"] / commits, "polls/commit"),
        "process.idle_poll_share": (tc["idle_polls"] / max(1, tc["polls"]), "ratio"),
        "process.wakes_per_commit": (tc["Process._wake_at_tick"] / commits, "wakes/commit"),
        "process.rng_draws_per_commit": (tc["proc_draws"] / commits, "draws/commit"),
        "process.self_s": (self_s["process"], "s"),
        "core.accepts_per_commit": (drive.get("acuerdo.accept", 0) / commits, "accepts/commit"),
        "core.elections": (drive["elections"], "count"),
        "core.election_ms": (counts["election_ms_median"], "ms"),
        "core.self_s": (self_s["core"], "s"),
        "protocols.calls_per_commit": (calls("protocols") / commits, "calls/commit"),
        "protocols.self_s": (self_s["protocols"], "s"),
        "rdma.writes_per_commit": (drive.get("substrate.rdma.tx_msgs", 0) / commits, "writes/commit"),
        "rdma.bytes_per_commit": (drive.get("substrate.rdma.tx_bytes", 0) / commits, "bytes/commit"),
        "rdma.sst_pushes_per_commit": (tc["SharedStateTable.push"] / commits, "pushes/commit"),
        "rdma.ring_full_share": (drive["ring_stalls"] / max(1, ring_attempts), "ratio"),
        "rdma.self_s": (self_s["rdma"], "s"),
        "tcp.msgs_per_commit": (drive.get("substrate.tcp.tx_msgs", 0) / commits, "msgs/commit"),
        "tcp.bytes_per_commit": (drive.get("substrate.tcp.tx_bytes", 0) / commits, "bytes/commit"),
        "tcp.self_s": (self_s["tcp"], "s"),
        "workloads.submits_per_commit": (counts["attempts"] / commits, "submits/commit"),
        "workloads.resent": (counts["resent"], "count"),
        "workloads.self_s": (self_s["workloads"], "s"),
        "shard.route_calls": (tc["ShardRouter.shard_of"], "count"),
        "shard.hottest_share": (counts.get("hottest_share", 0.0), "ratio"),
        "shard.self_s": (self_s["shard"], "s"),
        "monitors.events_per_commit": (drive["monitor_events"] / commits, "events/commit"),
        "monitors.violations": (counts["violations"], "count"),
        "monitors.self_s": (self_s["monitors"], "s"),
        "trace.overhead": (traced.wall_s / base_wall, "ratio"),
        "trace.remainder_s": (self_s["bench"], "s"),
    }
    accounting = {
        "traced_wall_s": traced.wall_s,
        "self_s": self_s,
        "sum_self_s": sum(self_s.values()),
        "untraced_wall_s": base_wall,
        "spans": len(m["tracer"].start),
        "trace_counts": tc,
    }
    return metrics, accounting


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    m = measure(workload, args.seed, args.seconds, bool(args.trace))

    problems = []
    reps = m["reps"]
    digests = {}
    for r in reps:
        digests.setdefault(r.seed, set()).add(r.digest)
    for sub, ds in sorted(digests.items()):
        if len(ds) > 1:
            problems.append(f"nondeterminism: repetitions of seed {sub} "
                            f"disagree, digests {sorted(ds)}")
    for r in reps:
        problems.extend(r.outcome.problems)
    attempted = sum(r.outcome.attempted for r in reps)
    failed = sum(r.outcome.failed for r in reps)
    if problems:
        failed = max(failed, 1)
    sim, tail_note = wl.sim_metrics([r.outcome for r in reps[:workload.subseeds]])

    timed = m["timed"]
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "host": host_record(),
        "repetitions": len(timed),
        "wall_s": statistics.median(r.wall_s for r in timed),
        "wall_s_each": [r.wall_s for r in timed],
        "calibration_s_each": [statistics.median(r.speed.samples) for r in timed],
        "calibration_samples": sum(len(r.speed.samples) for r in timed),
        "setup_s_each": m["setups"],
        "notes": [tail_note] + sorted({n for r in reps for n in r.outcome.notes}),
        "generator_lateness_ns": 0,
        "digests": {str(k): sorted(v) for k, v in sorted(digests.items())},
        "cost_models": cost_models(),
        "problems": problems[:20],
    }
    if args.trace:
        metrics, accounting = per_layer(m)
        detail["accounting"] = accounting
    else:
        metrics = end_to_end(m, sim)
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
