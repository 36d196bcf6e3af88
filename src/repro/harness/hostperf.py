"""Behavioural gates on the simulator's host-side optimizations.

Poll elision, macro-event fusion, space-parallel farm slices and the
safety monitors must leave simulated behaviour unchanged while the host
does less work.  One declarative :func:`table` of rows (a workload, its
variants and its gates) checks that on fixed reference workloads, run
by one executor (:func:`run_table`)::

    PYTHONPATH=src python -m repro.harness.hostperf

prints every gate with its value, rewrites ``BENCH_host_perf.json``
(carrying its recorded reference points over unchanged) and exits
non-zero iff a gate fails.  Comparing wall time across commits is
``perfbench/run.py``'s job (calibrated medians), not this module's.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pathlib
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable, Mapping, Optional

from repro.harness.fig8 import point
from repro.harness.runspec import RunSpec

SCHEMA = "repro.host_perf/v2"

DEFAULT_PATH = pathlib.Path("BENCH_host_perf.json")

#: The fixed reference workload: one mid-size Fig. 8 point per backend,
#: named by a :class:`RunSpec` plus its completion target.  Frozen —
#: editing these invalidates the reference points recorded in the BENCH
#: file.
REFERENCE_POINTS: dict[str, dict[str, Any]] = {
    "rdma": {"spec": RunSpec(system="acuerdo", n=3, payload_bytes=1000,
                             window=32, seed=3, duration_ms=2000.0),
             "min_completions": 3000},
    "tcp": {"spec": RunSpec(system="zookeeper", n=3, payload_bytes=1000,
                            window=32, seed=3, duration_ms=4000.0),
            "min_completions": 2000},
}

#: The sweep-equivalence check workload (kept tiny: it runs the sweep
#: once per variant per round).
SWEEP_CHECK_SPEC = RunSpec(system="acuerdo", n=3, payload_bytes=100, seed=5)
SWEEP_CHECK = dict(min_completions=60, max_window=8)

#: The poll-elision showcase: a low-rate Acuerdo deployment where most
#: polls observe nothing, so the doorbell/parking machinery should elide
#: the bulk of the executed events without changing the simulated
#: result.  The commit-push (heartbeat) period is widened to 20 us — a
#: lightly loaded deployment — because the heartbeat cadence is the
#: floor on how long an idle replica can stay parked.
DOORBELL_POINT: dict[str, Any] = {
    "system": "acuerdo",
    "n": 3,
    "seed": 7,
    "payload_bytes": 64,
    "period_ns": 50_000,          # one open-loop message per 50 us
    "duration_ms": 50,
    "commit_push_period_ns": 20_000,
}

#: Parking must buy at least this factor in executed events on the
#: doorbell point (the acceptance bar for the elision machinery).
DOORBELL_MIN_EVENT_REDUCTION = 3.0

#: Executed-event ceilings for the reference points with parking on
#: (machine-independent, like the behavioral fingerprints): the guard
#: against poll-elision regressions, which show up as an event-count
#: explosion long before they are visible in noisy wall-clock.  Values
#: are the measured counts plus ~25% headroom.
EVENT_CEILINGS: dict[str, int] = {
    "rdma": 95_000,     # measured 73_901 with parking on
    "tcp": 145_000,     # measured 112_533 with parking on
}

#: The shard-farm reference point: an 8-group Acuerdo farm serving 10^5
#: logical users under Zipfian(0.99) skew at 500k req/s aggregate.
#: Exercises the scale-out path (router, scoped groups, aggregate
#: arrivals) the same way the backend points exercise the substrates.
SHARD_POINT = RunSpec(system="acuerdo", n=3, seed=9, payload_bytes=64,
                      workload="openloop", duration_ms=20.0, shards=8,
                      users=100_000, skew=0.99, arrival_rate=500_000.0)

#: Executed-event ceiling for :data:`SHARD_POINT` (measured 301_200 with
#: parking on and the farm heartbeat, plus ~25% headroom).  Guards the
#: per-group event cost of the farm: a regression here multiplies by the
#: shard count.  Macro-event fusion does not move this number — chains
#: change how events are *stored*, every step still executes and counts.
SHARD_EVENT_CEILING = 375_000

#: Heap-push reduction macro-event fusion must buy on the shard farm
#: (machine-independent, like the event ceilings).  Most farm pushes are
#: unfusable poll/park singletons, so the whole-farm ratio is modest
#: even though fused fan-outs shrink ~8x; measured 384_485 / 364_708 =
#: 1.054x.
CHAIN_MIN_PUSH_REDUCTION = 1.03

#: Workers for the parallel variants: the 8-group farm splits into this
#: many contiguous 2-group slices, and the sweep fans over this many
#: processes.
PARALLEL_WORKERS = 4

#: Wall-clock factor the space-parallel farm must buy at
#: :data:`PARALLEL_WORKERS` workers vs the serial engine.  On hosts with
#: fewer CPUs than workers the bar applies to the projected speedup —
#: serial seconds over the slowest slice's *inner* seconds from a
#: sequential-slices run — since concurrent slices on a starved host
#: measure queueing, not the parallel design.
FARM_PARALLEL_MIN_SPEEDUP = 3.0

#: Worst acceptable wall-clock ratio (monitors on / monitors off) for
#: the rdma reference point with ``check_invariants`` set.  The
#: monitors subscribe to protocol-emitted safety events (``engine.
#: monitors`` gates every emission site, so "off" costs one attribute
#: load per site); "on" pays event construction plus the incremental
#: invariant checks.  The reference point is a monitor-density worst
#: case — ~37k safety events against ~74k simulator events, about 2 us
#: of dispatch+check per event — and measures ~1.12-1.16x best-of
#: interleaved on this class of host, drifting to ~1.28x under shared-
#: host load.  The bar is a regression tripwire (pre-optimization
#: dispatch measured 1.5x), not a certification of the third decimal,
#: so it clears the observed noise band.
MONITOR_MAX_OVERHEAD = 1.35

#: Interleaved rounds per row: every round after the first re-checks
#: determinism.  Rows with a timed gate run more, since best-of needs a
#: population.
ROUNDS = 2


@dataclass(frozen=True)
class Outcome:
    """What one run of a variant produced: the simulated ``behaviour``,
    exact host-cost ``counts`` (events, heap pushes) and ``violations``.
    ``seconds`` is never compared: a runner may report its own critical
    section (the slowest slice of a sequential-slices run), and
    :func:`run_row` replaces it with the variant's best of rounds."""

    behaviour: Any
    counts: Mapping[str, int] = field(default_factory=dict)
    violations: int = 0
    seconds: Optional[float] = field(default=None, compare=False)


@dataclass(frozen=True)
class Gate:
    """One check on a row's variants, evaluated by ``kind``:

    - ``identical`` — behaviour (and ``count``, if named) equal across
      ``variants``, or across every variant of the row when empty;
    - ``reference`` — ``variants[0]``'s behaviour equals the row's
      recorded reference point field for field;
    - ``ceiling`` / ``floor`` — the ``count`` of ``variants[0]``, or its
      ratio over ``variants[1]``'s, is at most / at least ``bar``.  The
      count ``"seconds"`` is the variants' best-of wall clock;
    - ``violations`` — no variant reported a safety violation.
    """

    kind: str
    variants: tuple[str, ...] = ()
    count: str = ""
    bar: float = 0

    @property
    def name(self) -> str:
        scope = f"[{'/'.join(self.variants)}]" if self.variants else ""
        count = f".{self.count}" if self.count else ""
        bar = {"ceiling": f"<={self.bar}", "floor": f">={self.bar}"}
        return self.kind + scope + count + bar.get(self.kind, "")


@dataclass(frozen=True)
class Row:
    """A workload: variants (label -> zero-argument runner) and gates."""

    name: str
    variants: Mapping[str, Callable[[], Outcome]]
    gates: tuple[Gate, ...]
    rounds: int = ROUNDS


def check(gate: Gate, runs: Mapping[str, Outcome],
          recorded: Any) -> tuple[Any, bool]:
    """Evaluate ``gate`` on one row's outcomes: ``(value, passed)``."""
    labels = gate.variants or tuple(runs)
    if gate.kind == "identical":
        keys = [(runs[lb].behaviour, runs[lb].counts.get(gate.count))
                for lb in labels]
        differ = [lb for lb, k in zip(labels, keys) if k != keys[0]]
        return differ or "all equal", not differ
    if gate.kind == "reference":        # unrecorded: every field drifts
        got, recorded = runs[labels[0]].behaviour, recorded or {}
        drift = [f"{k}: {recorded.get(k)!r} -> {got.get(k)!r}"
                 for k in sorted(set(recorded) | set(got))
                 if recorded.get(k) != got.get(k)]
        return drift or "match", not drift
    if gate.kind == "violations":
        got = sum(runs[lb].violations for lb in labels)
        return got, got == 0
    if gate.kind not in ("ceiling", "floor"):
        raise ValueError(f"unknown gate kind {gate.kind!r}")
    qty = [runs[lb].seconds if gate.count == "seconds"
           else runs[lb].counts[gate.count] for lb in labels]
    got = qty[0] if len(qty) == 1 else (
        round(qty[0] / qty[1], 3) if qty[1] else float("inf"))
    return got, got <= gate.bar if gate.kind == "ceiling" else got >= gate.bar


@contextlib.contextmanager
def _gc_paused():
    """Collector off for a timed run.

    The simulations allocate heavily but are acyclic at the rates that
    matter; generational GC pauses are host noise in the wall numbers
    (~9% on the shard farm), so the timed runs measure with the
    collector off and restore it afterwards."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()


@contextlib.contextmanager
def _env(name: str, value: str):
    """Environment toggle ``name`` (``REPRO_PARK``, ``REPRO_CHAIN``) set
    to ``value`` for the duration of a run; ``_env(name, value)(runner)``
    is that runner with the toggle applied."""
    prior = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if prior is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = prior


def _fig8(backend: str, **changes: Any) -> Outcome:
    """The ``backend`` reference point, with ``changes`` to its spec."""
    ref = REFERENCE_POINTS[backend]
    collect: dict[str, Any] = {}
    p = point(ref["spec"].replace(**changes),
              min_completions=ref["min_completions"], collect=collect)
    return Outcome(asdict(p), {"events": collect["events_executed"]},
                   collect["violations"])


def _doorbell() -> Outcome:
    """The doorbell workload under the current ``REPRO_PARK`` setting."""
    from repro.core.cluster import AcuerdoCluster
    from repro.core.config import AcuerdoConfig
    from repro.sim.engine import Engine, ms
    from repro.workloads.openloop import OpenLoopClient

    ref = DOORBELL_POINT
    engine = Engine(seed=ref["seed"])
    cfg = AcuerdoConfig(commit_push_period_ns=ref["commit_push_period_ns"])
    cluster = AcuerdoCluster(engine, ref["n"], config=cfg)
    cluster.preseed_leader(0)
    cluster.start()
    client = OpenLoopClient(cluster, period_ns=ref["period_ns"],
                            message_size=ref["payload_bytes"])
    client.start()
    engine.run(until=engine.now + ms(ref["duration_ms"]))
    client.stop()
    return Outcome({"committed": client.committed,
                    "delivered": sorted(cluster.deliveries.counts.items()),
                    "fingerprint": repr(engine.trace.fingerprint()),
                    "leader": cluster.leader_id(),
                    "sim_now_ns": engine.now},
                   {"events": engine.events_executed})


def _farm(spec: RunSpec = SHARD_POINT,
          pool_workers: Optional[int] = None) -> Outcome:
    """The shard farm, sliced by :func:`~repro.shard.parallel.
    parallel_shard_point` when ``spec.workers > 1``.  Behaviour is the
    :class:`ShardPoint` minus its host-cost fields (``workers``, and the
    counts, which sum over worker engines) plus per-shard fingerprints."""
    from repro.harness.shardsweep import shard_point
    from repro.shard.parallel import parallel_shard_point

    collect: dict[str, Any] = {}
    if spec.workers > 1:
        p = parallel_shard_point(spec, collect=collect,
                                 pool_workers=pool_workers)
    else:
        p = shard_point(spec, collect=collect)
    behaviour = asdict(p)
    counts = {k: behaviour.pop(k) for k in ("events_executed", "heap_pushes")}
    del behaviour["workers"]
    behaviour["shard_fingerprints"] = collect["shard_fingerprints"]
    seconds = max(collect["slice_seconds"]) if pool_workers == 1 else None
    return Outcome(behaviour, counts, p.violations, seconds)


def _sweep(workers: int) -> Outcome:
    """The small Fig. 8 sweep's points, fanned over ``workers``."""
    from repro.harness.fig8 import sweep

    return Outcome([asdict(p) for p in sweep(SWEEP_CHECK_SPEC,
                                             workers=workers, **SWEEP_CHECK)])


def table(host_cpus: int) -> list[Row]:
    """The gate table.  ``host_cpus`` picks the parallel farm's timing
    basis: pool wall time when every slice gets a CPU, else the
    sequential-slices projection (see :data:`FARM_PARALLEL_MIN_SPEEDUP`)."""
    sliced = SHARD_POINT.replace(workers=PARALLEL_WORKERS)
    basis = "pool" if host_cpus >= PARALLEL_WORKERS else "sliced"
    return [
        # Monitors off/on: the overhead (~10%) is the magnitude of
        # host-load swings on a shared machine, and a ratio of two
        # best-ofs compounds their noise, hence one round more than
        # the farm.
        Row("rdma", {"off": partial(_fig8, "rdma"),
                     "monitored": partial(_fig8, "rdma",
                                          check_invariants=True)},
            (Gate("reference", ("off",)),
             Gate("ceiling", ("off",), "events", EVENT_CEILINGS["rdma"]),
             Gate("identical"), Gate("violations"),
             Gate("ceiling", ("monitored", "off"), "seconds",
                  MONITOR_MAX_OVERHEAD)),
            rounds=4),
        Row("tcp", {"plain": partial(_fig8, "tcp")},
            (Gate("reference", ("plain",)),
             Gate("ceiling", ("plain",), "events", EVENT_CEILINGS["tcp"]))),
        Row("doorbell", {"parked": _env("REPRO_PARK", "1")(_doorbell),
                         "unparked": _env("REPRO_PARK", "0")(_doorbell)},
            (Gate("identical"),
             Gate("floor", ("unparked", "parked"), "events",
                  DOORBELL_MIN_EVENT_REDUCTION))),
        # One row, so the speedup divides serial and sliced seconds from
        # the same load phases.  Fusion changes how events are stored,
        # never whether they run: the serial event counts match too.
        Row("shard_farm", {
                "serial": _farm,
                "unfused": _env("REPRO_CHAIN", "0")(_farm),
                "pool": partial(_farm, sliced),
                "sliced": partial(_farm, sliced, pool_workers=1),
                "monitored": partial(
                    _farm, sliced.replace(check_invariants=True))},
            (Gate("identical"), Gate("violations"),
             Gate("identical", ("serial", "unfused"), "events_executed"),
             Gate("ceiling", ("serial",), "events_executed",
                  SHARD_EVENT_CEILING),
             Gate("floor", ("unfused", "serial"), "heap_pushes",
                  CHAIN_MIN_PUSH_REDUCTION),
             Gate("floor", ("serial", basis), "seconds",
                  FARM_PARALLEL_MIN_SPEEDUP)),
            rounds=3),
        Row("sweep", {"workers=1": partial(_sweep, 1),
                      f"workers={PARALLEL_WORKERS}":
                          partial(_sweep, PARALLEL_WORKERS)},
            (Gate("identical"),)),
    ]


def run_row(row: Row) -> dict[str, Outcome]:
    """Run ``row``'s variants interleaved (a, b, a, b, ...) for
    ``row.rounds`` rounds, so every variant sees the same host-load
    phases; each outcome carries its best-of seconds."""
    best = dict.fromkeys(row.variants, float("inf"))
    first: dict[str, Outcome] = {}
    for _ in range(row.rounds):
        for label, runner in row.variants.items():
            with _gc_paused():
                t0 = time.perf_counter()
                out = runner()
                wall = time.perf_counter() - t0
            best[label] = min(best[label],
                              wall if out.seconds is None else out.seconds)
            if first.setdefault(label, out) != out:
                raise RuntimeError(
                    f"{row.name}: variant {label!r} produced a different "
                    "outcome on a later round")
    return {lb: replace(out, seconds=best[lb]) for lb, out in first.items()}


def run_table(rows: list[Row],
              reference: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Run every row and check (and print) its gates; ``reference`` maps
    row names to recorded points."""
    results: list[dict[str, Any]] = []
    for row in rows:
        runs = run_row(row)
        for gate in row.gates:
            value, ok = check(gate, runs, reference.get(row.name))
            print(f"{'ok' if ok else 'FAIL':4} {row.name}.{gate.name} = {value}")
            results.append({"row": row.name, "gate": gate.name,
                            "value": value, "ok": ok})
    return results


def write_bench(path: pathlib.Path) -> int:
    """Run the table, rewrite the BENCH file, return a process exit code.
    The recorded reference points are read from ``path`` and carried over
    unchanged: only a deliberate edit of the file re-records them."""
    reference = (json.loads(path.read_text()).get("reference", {})
                 if path.exists() else {})
    host_cpus = os.cpu_count() or 1
    results = run_table(table(host_cpus), reference)
    doc = {"schema": SCHEMA, "reference": reference, "host_cpus": host_cpus,
           "gates": results}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    failed = sum(not r["ok"] for r in results)
    print(f"wrote {path}: {len(results) - failed}/{len(results)} gates passed")
    return 1 if failed else 0


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path, default=DEFAULT_PATH)
    return write_bench(ap.parse_args(argv).out)


if __name__ == "__main__":
    raise SystemExit(main())
