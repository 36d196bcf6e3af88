"""The hostperf gate table and its executor, on zero-cost fake runners.

No simulation runs here: every runner returns a canned
:class:`Outcome`, so these tests pin the executor's semantics (rounds,
determinism, each gate kind) and the real table's wiring.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.harness import hostperf
from repro.harness.hostperf import Gate, Outcome, Row, run_table

BENCH = pathlib.Path(__file__).resolve().parents[2] / "BENCH_host_perf.json"


def const(behaviour="b", counts=None, violations=0, seconds=None):
    return lambda: Outcome(behaviour, counts or {}, violations, seconds)


def only_result(row: Row, reference=None, capsys=None):
    [result] = run_table([row], reference or {})
    if capsys is not None:
        line = capsys.readouterr().out.strip()
        assert line.startswith("ok" if result["ok"] else "FAIL"), line
        assert f" {row.name}." in line, line
    return result


# (gate, passing variants, failing variants) for every gate kind
CASES = [
    (Gate("identical"),
     {"a": const("x"), "b": const("x")},
     {"a": const("x"), "b": const("y")}),
    (Gate("identical", ("a", "b"), "events"),
     {"a": const(counts={"events": 5}), "b": const(counts={"events": 5})},
     {"a": const(counts={"events": 5}), "b": const(counts={"events": 6})}),
    (Gate("ceiling", ("a",), "events", 10),
     {"a": const(counts={"events": 10})},
     {"a": const(counts={"events": 11})}),
    (Gate("floor", ("a", "b"), "events", 3.0),
     {"a": const(counts={"events": 30}), "b": const(counts={"events": 10})},
     {"a": const(counts={"events": 29}), "b": const(counts={"events": 10})}),
    (Gate("floor", ("a", "b"), "seconds", 3.0),
     {"a": const(seconds=3.0), "b": const(seconds=1.0)},
     {"a": const(seconds=2.9), "b": const(seconds=1.0)}),
    (Gate("ceiling", ("a", "b"), "seconds", 1.35),
     {"a": const(seconds=1.3), "b": const(seconds=1.0)},
     {"a": const(seconds=1.4), "b": const(seconds=1.0)}),
    (Gate("violations"),
     {"a": const(), "b": const()},
     {"a": const(), "b": const(violations=1)}),
]


@pytest.mark.parametrize("gate,passing,failing", CASES,
                         ids=[c[0].name for c in CASES])
def test_each_gate_kind_passes_and_fails_naming_the_row(
        gate, passing, failing, capsys):
    ok = only_result(Row("good_row", passing, (gate,), rounds=2), capsys=capsys)
    assert ok["ok"] and ok["row"] == "good_row"
    bad = only_result(Row("bad_row", failing, (gate,), rounds=2),
                      capsys=capsys)
    assert not bad["ok"] and bad["row"] == "bad_row"
    assert bad["gate"] == gate.name


def test_reference_gate_needs_a_recorded_point(capsys):
    row = Row("ref_row", {"a": const({"x": 1})}, (Gate("reference", ("a",)),))
    assert only_result(row, {"ref_row": {"x": 1}}, capsys)["ok"]
    drifted = only_result(row, {"ref_row": {"x": 2}}, capsys)
    assert not drifted["ok"] and drifted["value"] == ["x: 2 -> 1"]
    assert not only_result(row, {}, capsys)["ok"]


def test_unknown_gate_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown gate kind"):
        run_table([Row("r", {"a": const()}, (Gate("typo"),))], {})


def test_timed_gates_use_runner_seconds_and_best_of_rounds():
    slow = iter([5.0, 2.0, 4.0])
    row = Row("timed", {"a": lambda: Outcome("b", seconds=next(slow)),
                        "b": const(seconds=1.0)},
              (Gate("floor", ("a", "b"), "seconds", 2.0),), rounds=3)
    assert only_result(row)["value"] == 2.0


def test_nondeterministic_runner_raises_naming_the_row():
    outputs = iter(["same", "same", "different"])
    row = Row("flaky_row", {"a": lambda: Outcome(next(outputs))},
              (Gate("identical"),), rounds=3)
    with pytest.raises(RuntimeError, match="flaky_row.*'a'"):
        run_table([row], {})


def test_nondeterministic_counts_raise():
    counts = iter([1, 2])
    row = Row("counts_row",
              {"a": lambda: Outcome("b", {"events": next(counts)})},
              (), rounds=2)
    with pytest.raises(RuntimeError, match="counts_row"):
        run_table([row], {})


def test_env_toggle_applies_inside_the_runner_only():
    prior = os.environ.get("REPRO_PARK")
    runner = hostperf._env("REPRO_PARK", "0")(
        lambda: Outcome(os.environ["REPRO_PARK"]))
    assert runner().behaviour == "0"
    assert os.environ.get("REPRO_PARK") == prior


@pytest.mark.parametrize("host_cpus,basis", [(1, "sliced"), (2, "sliced"),
                                             (4, "pool"), (64, "pool")])
def test_every_gate_constant_is_used_by_the_real_table(host_cpus, basis):
    rows = hostperf.table(host_cpus)
    gates = {(row.name, g.kind, g.variants, g.count, g.bar)
             for row in rows for g in row.gates}
    for row in rows:
        for g in row.gates:
            assert set(g.variants) <= set(row.variants), (row.name, g)
    expected = {
        ("rdma", "reference", ("off",), "", 0),
        ("tcp", "reference", ("plain",), "", 0),
        ("rdma", "ceiling", ("off",), "events",
         hostperf.EVENT_CEILINGS["rdma"]),
        ("tcp", "ceiling", ("plain",), "events",
         hostperf.EVENT_CEILINGS["tcp"]),
        ("shard_farm", "ceiling", ("serial",), "events_executed",
         hostperf.SHARD_EVENT_CEILING),
        ("doorbell", "identical", (), "", 0),
        ("doorbell", "floor", ("unparked", "parked"), "events",
         hostperf.DOORBELL_MIN_EVENT_REDUCTION),
        ("shard_farm", "identical", (), "", 0),
        ("shard_farm", "identical", ("serial", "unfused"), "events_executed",
         0),
        ("shard_farm", "floor", ("unfused", "serial"), "heap_pushes",
         hostperf.CHAIN_MIN_PUSH_REDUCTION),
        ("shard_farm", "violations", (), "", 0),
        ("shard_farm", "floor", ("serial", basis), "seconds",
         hostperf.FARM_PARALLEL_MIN_SPEEDUP),
        ("rdma", "identical", (), "", 0),
        ("rdma", "violations", (), "", 0),
        ("rdma", "ceiling", ("monitored", "off"), "seconds",
         hostperf.MONITOR_MAX_OVERHEAD),
        ("sweep", "identical", (), "", 0),
    }
    assert expected <= gates, expected - gates
    assert (hostperf.EVENT_CEILINGS, hostperf.SHARD_EVENT_CEILING,
            hostperf.DOORBELL_MIN_EVENT_REDUCTION,
            hostperf.CHAIN_MIN_PUSH_REDUCTION,
            hostperf.FARM_PARALLEL_MIN_SPEEDUP,
            hostperf.MONITOR_MAX_OVERHEAD) == (
        {"rdma": 95_000, "tcp": 145_000}, 375_000, 3.0, 1.03, 3.0, 1.35)


@pytest.mark.parametrize("backend", ["rdma", "tcp"])
def test_editing_one_recorded_field_fails_the_drift_gate(backend):
    recorded = json.loads(BENCH.read_text())["reference"]
    point = recorded[backend]
    row = Row(backend, {"run": const(dict(point))},
              (Gate("reference", ("run",)),))
    assert only_result(row, recorded)["ok"]
    for field, value in point.items():
        edited = dict(point, **{field: value + 1 if not isinstance(value, str)
                                else value + "x"})
        result = only_result(row, {backend: edited})
        assert not result["ok"] and result["row"] == backend
        assert [v.split(":")[0] for v in result["value"]] == [field]


def test_write_bench_carries_the_reference_and_exits_on_failure(
        tmp_path, monkeypatch):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"reference": {"r": {"x": 1}}}))
    behaviour = {"x": 1}
    monkeypatch.setattr(hostperf, "table", lambda host_cpus: [
        Row("r", {"a": lambda: Outcome(dict(behaviour))},
            (Gate("reference", ("a",)),), rounds=1)])
    assert hostperf.main(["--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["schema"] == hostperf.SCHEMA
    assert doc["reference"] == {"r": {"x": 1}}
    assert [g["ok"] for g in doc["gates"]] == [True]

    behaviour["x"] = 2
    assert hostperf.main(["--out", str(path)]) == 1
    doc = json.loads(path.read_text())
    assert doc["reference"] == {"r": {"x": 1}}      # carried, not re-recorded
    assert [g["ok"] for g in doc["gates"]] == [False]
