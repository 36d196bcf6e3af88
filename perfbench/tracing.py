"""Layer spans and exact counts, recorded from the benchmark's own files.

:class:`LayerTracer` wraps the entry points of each layer of the
simulator (the functions another layer calls into, and the event
handlers the engine dispatches) at class level, so it must be installed
*before* the system is built: hot paths cache bound methods at
construction (``AcuerdoNode``'s SST and ring references, the SST and
ring ``_wires``).  Nothing inside ``src/`` is changed.

Each call into a layer from a different layer opens a span: its layer,
its parent span, and its start and end on the host clock.  A call from
within the same layer only counts the call, so nested helpers stay in
their caller's span.  Spans stay in memory and are written out once at
the end; a layer's self time is the summed duration of its spans minus
the time their child spans cover.  Pure getters (``SharedStateTable.
read``, ``RingBuffer.free_slots``, ...) are not wrapped: their cost
belongs to the caller.

Two counts are not calls: an ``on_poll`` that schedules no engine event
and charges no CPU is an *idle* poll, and every draw from a process's
jitter stream (``proc.*``) is counted by handing the process a counting
:class:`random.Random` subclass that returns the identical values.
"""

from __future__ import annotations

import functools
import json
import pathlib
import random
import sys
from array import array
from time import perf_counter_ns
from typing import Any, Callable

ROOT = "bench"

#: Layer -> (module, class, entry points).  The module/class pairs are
#: the layers' public classes; method names include the event handlers
#: the engine dispatches, which is where a layer is entered from the
#: event loop.
ENTRY_POINTS: dict[str, list[tuple[str, str, tuple[str, ...]]]] = {
    "engine": [
        ("repro.sim.engine", "Engine",
         ("run", "schedule", "schedule_at", "schedule_chain",
          "_push_chain_abs")),
        ("repro.sim.engine", "Event", ("cancel",)),
        ("repro.sim.engine", "ChainBuilder", ("add", "commit")),
    ],
    "process": [
        ("repro.sim.process", "Process",
         ("_poll_tick", "_poll_once", "_horizon_fire", "doorbell",
          "request_poll", "wake", "deschedule", "_wake_at_tick")),
        ("repro.sim.process", "Cpu", ("submit", "_run")),
    ],
    "core": [
        ("repro.core.node", "AcuerdoNode",
         ("on_poll", "park_ready", "park_deadline", "client_broadcast")),
        ("repro.core.cluster", "AcuerdoCluster", ("submit",)),
    ],
    "protocols": [
        ("repro.protocols.zab", "ZabNode",
         ("on_poll", "park_ready", "park_deadline", "client_broadcast",
          "_on_self_durable", "_follower_durable")),
        ("repro.protocols.zab", "ZabCluster", ("submit",)),
    ],
    "rdma": [
        ("repro.rdma.qp", "QueuePair", ("post_write", "_deliver", "_complete")),
        ("repro.rdma.ringbuffer", "RingBuffer", ("try_send", "mark_released")),
        ("repro.rdma.ringbuffer", "RingReceiver", ("poll",)),
        ("repro.rdma.sst", "SharedStateTable",
         ("write_local", "push", "set_and_push", "remote_write_row",
          "snapshot")),
        ("repro.rdma.fabric", "RdmaFabric", ("write", "send", "broadcast")),
        ("repro.rdma.fabric", "RdmaEndpoint", ("deliver", "drain")),
    ],
    "tcp": [
        ("repro.net.tcp", "TcpNetwork", ("send", "broadcast", "_deliver")),
        ("repro.net.tcp", "TcpEndpoint", ("deliver", "drain")),
    ],
    "workloads": [
        ("repro.workloads.closedloop", "ClosedLoopClient",
         ("start", "stop", "_submit", "_on_commit", "_acked")),
        ("repro.workloads.openloop", "OpenLoopClient",
         ("start", "stop", "_tick", "_start_batch", "_chain_arrival",
          "_submit_one", "_on_commit")),
    ],
    "shard": [
        ("repro.shard.deployment", "ShardedDeployment",
         ("submit", "submit_keyed")),
        ("repro.shard.router", "ShardRouter", ("shard_of",)),
    ],
    "monitors": [
        ("repro.monitors.registry", "MonitorRegistry",
         ("note", "ingest", "on_span")),
    ],
}

LAYERS = [ROOT] + list(ENTRY_POINTS)

#: Methods whose wrapper also classifies the poll as idle or busy.
_POLLS = {("AcuerdoNode", "on_poll"), ("ZabNode", "on_poll")}


class _CountingRandom(random.Random):
    """A :class:`random.Random` that counts draws and returns exactly
    the values of the base class (``randrange`` still goes through
    ``getrandbits``, so the stream is unchanged)."""

    draws = 0

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return super().getrandbits(k)

    def random(self) -> float:
        self.draws += 1
        return super().random()


class LayerTracer:
    """Install with :meth:`install` before building the system, run the
    traced section between :meth:`begin` and :meth:`end`, and always
    :meth:`uninstall` (or use the tracer as a context manager)."""

    def __init__(self) -> None:
        self.start = array("q")
        self.stop = array("q")
        self.parent = array("q")
        self.layer = array("B")
        self.cur = 0
        self.polls = 0
        self.idle_polls = 0
        self.proc_streams: list[_CountingRandom] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._counters: dict[str, list] = {}

    # ------------------------------------------------------------ install

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()

    def install(self) -> None:
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        import importlib

        for lid, layer in enumerate(LAYERS):
            for mod_name, cls_name, names in ENTRY_POINTS.get(layer, ()):
                cls = getattr(importlib.import_module(mod_name), cls_name)
                for name in names:
                    raw = cls.__dict__[name]
                    self._saved.append((cls, name, raw))
                    key = f"{cls_name}.{name}"
                    if (cls_name, name) in _POLLS:
                        wrapped = self._wrap_poll(raw, lid, key)
                    else:
                        wrapped = self._wrap(raw, lid, key)
                    setattr(cls, name, wrapped)
        # Root span, open until end(); its self time is the traced time
        # no layer claims (the benchmark's own code).  begin()
        # re-opens it, so set-up spans before it are dropped.
        self._open(0)
        engine_mod = importlib.import_module("repro.sim.engine")
        self._saved.append((engine_mod, "random", engine_mod.random))
        engine_mod.random = _RandomModule(self)

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._saved):
            setattr(owner, name, raw)
        self._saved.clear()

    def _counter(self, key: str) -> list:
        box = self._counters.get(key)
        if box is None:
            box = self._counters[key] = [0]
        return box

    def _open(self, lid: int) -> int:
        i = len(self.start)
        self.start.append(0)
        self.stop.append(0)
        self.parent.append(self.cur if i else -1)
        self.layer.append(lid)
        self.cur = i
        return i

    def _wrap(self, fn: Callable, lid: int, key: str) -> Callable:
        box = self._counter(key)
        layer, start, stop = self.layer, self.start, self.stop
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            box[0] += 1
            parent = tracer.cur
            if layer[parent] == lid:
                return fn(*args, **kwargs)
            i = tracer._open(lid)
            start[i] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                stop[i] = perf_counter_ns()
                tracer.cur = parent

        return wrapper

    def _wrap_poll(self, fn: Callable, lid: int, key: str) -> Callable:
        inner = self._wrap(fn, lid, key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(node):
            engine, cpu = node.engine, node.cpu
            pushes, busy = engine.heap_pushes, cpu.busy_until
            inner(node)
            tracer.polls += 1
            if engine.heap_pushes == pushes and cpu.busy_until == busy:
                tracer.idle_polls += 1

        return wrapper

    # -------------------------------------------------------------- phase

    def begin(self) -> dict:
        """Start the traced section: drop the spans set-up recorded, open
        the root span, and return the count snapshot to subtract."""
        for col in (self.start, self.stop, self.parent, self.layer):
            del col[:]
        self._open(0)
        self.start[0] = perf_counter_ns()
        return self.counts()

    def end(self) -> None:
        self.stop[0] = perf_counter_ns()

    def counts(self) -> dict:
        out = {k: v[0] for k, v in self._counters.items()}
        out["polls"] = self.polls
        out["idle_polls"] = self.idle_polls
        out["proc_draws"] = sum(r.draws for r in self.proc_streams)
        return out

    # ------------------------------------------------------------ results

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time of the spans recorded so far."""
        return self_seconds(self.start, self.stop, self.parent, self.layer)

    def write(self, path: pathlib.Path) -> None:
        """Write the spans as four columns plus an index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as f:
            for col in (self.start, self.stop, self.parent, self.layer):
                col.tofile(f)
        path.with_suffix(".json").write_text(json.dumps({
            "spans": len(self.start),
            "columns": [["start_ns", "q"], ["stop_ns", "q"],
                        ["parent", "q"], ["layer", "B"]],
            "byteorder": sys.byteorder,
            "layers": LAYERS,
        }, indent=1) + "\n")


class _RandomModule:
    """Stands in for the ``random`` module inside ``repro.sim.engine``,
    whose :meth:`Engine.rng` builds every stream as
    ``random.Random(f"{seed}|{stream}")``: process jitter streams get
    the counting subclass, every other stream a plain generator."""

    def __init__(self, tracer: LayerTracer):
        self._tracer = tracer

    def Random(self, x: Any) -> random.Random:  # noqa: N802 - module API
        stream = str(x).split("|", 1)[-1]
        if stream.startswith("proc.") or ".proc." in stream:
            r = _CountingRandom(x)
            self._tracer.proc_streams.append(r)
            return r
        return random.Random(x)


def self_seconds(start, stop, parent, layer) -> dict[str, float]:
    """Self time per layer: each span's duration minus the durations of
    its direct children (children nest inside their parent, and one
    thread never runs two spans at once, so they do not overlap)."""
    n = len(start)
    child = [0] * n
    dur = [stop[i] - start[i] for i in range(n)]
    for i in range(1, n):
        child[parent[i]] += dur[i]
    out = dict.fromkeys(LAYERS, 0)
    for i in range(n):
        out[LAYERS[layer[i]]] += dur[i] - child[i]
    return {k: v / 1e9 for k, v in out.items()}


def load_spans(path: pathlib.Path) -> tuple:
    """Read back what :meth:`LayerTracer.write` wrote."""
    index = json.loads(path.with_suffix(".json").read_text())
    n = index["spans"]
    cols = []
    with open(path.with_suffix(".bin"), "rb") as f:
        for _name, code in index["columns"]:
            col = array(code)
            col.fromfile(f, n)
            cols.append(col)
    return tuple(cols)
