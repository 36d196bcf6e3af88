"""The benchmark's own tests, at reduced scale on two seeds.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
import pathlib
import sys
from contextlib import redirect_stdout

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = (11, 12)


@pytest.fixture(autouse=True)
def reduced_scale(monkeypatch):
    monkeypatch.setattr(wl, "FIG8_SIM_MS", {"acuerdo": 1.0, "zookeeper": 20.0})
    monkeypatch.setattr(wl, "FARM_SPEC", wl.FARM_SPEC.replace(duration_ms=1.0))
    monkeypatch.setattr(wl, "FAILOVER_KILLS", 2)


def one_rep(name: str, seed: int, tracer=None) -> run.Rep:
    return run.Rep(wl.WORKLOADS[name], seed, tracer)


@pytest.mark.parametrize("seed", SEEDS)
def test_paper_shapes(seed):
    acuerdo = one_rep("fig8-acuerdo", seed).outcome
    zookeeper = one_rep("fig8-zookeeper", seed).outcome
    farm = one_rep("farm-zipf", seed).outcome
    failover = one_rep("failover-acuerdo", seed).outcome
    for out in (acuerdo, zookeeper, farm, failover):
        assert out.problems == [] and out.failed == 0
    sim = {name: wl.sim_metrics([out])[0] for name, out in (
        ("acuerdo", acuerdo), ("zookeeper", zookeeper), ("failover", failover))}
    # Fig. 8: Acuerdo over RDMA commits an order of magnitude faster.
    assert sim["acuerdo"]["sim_p50_us"] * 10 <= sim["zookeeper"]["sim_p50_us"]
    # Zipf(0.99) concentrates load on one of the 8 groups.
    assert farm.counts["hottest_share"] > 1 / 8
    # Table 1: descheduling the leader forces at least one election.
    assert failover.counts["drive"]["elections"] >= 1
    assert sim["failover"]["sim_downtime_ms"] > sim["acuerdo"]["sim_downtime_ms"]


def test_repetitions_of_one_seed_agree():
    a, b = one_rep("farm-zipf", SEEDS[0]), one_rep("farm-zipf", SEEDS[0])
    assert a.digest == b.digest
    assert one_rep("farm-zipf", SEEDS[1]).digest != a.digest


def forged(name: str, forge):
    """The named workload with ``forge(state)`` applied after the drive."""
    inner = wl.WORKLOADS[name]

    def setup(seed):
        st = inner.setup(seed)
        drive = st.drive

        def forged_drive(s):
            drive(s)
            forge(s)

        st.drive = forged_drive
        return st

    return wl.Workload(name, setup, inner.subseeds)


def run_main(monkeypatch, workload, *extra):
    monkeypatch.setitem(wl.WORKLOADS, workload.name, workload)
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run.main(["--workload", workload.name, "--seed", str(SEEDS[0]),
                         "--seconds", "0", *extra])
    lines = buf.getvalue().splitlines()
    return code, json.loads(lines[-2])["detail"], json.loads(lines[-1])


def swap_two_deliveries(st):
    seq = max(st.groups[0].deliveries.sequences.values(), key=len)
    seq[0], seq[1] = seq[1], seq[0]


def test_forged_delivery_mismatch_fails_the_run(monkeypatch):
    code, detail, result = run_main(
        monkeypatch, forged("fig8-acuerdo", swap_two_deliveries))
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert any("total order" in p for p in detail["problems"])


def test_acknowledged_but_undelivered_request_fails(monkeypatch):
    def drop_last_delivery(st):
        for seq in st.groups[0].deliveries.sequences.values():
            del seq[-1]

    out = None
    st = forged("fig8-zookeeper", drop_last_delivery).setup(SEEDS[0])
    st.extra["before"] = wl.snapshot(st)
    st.drive(st)
    out = wl.outcome(st)
    assert any("never delivered" in p for p in out.problems)
    assert out.failed == out.attempted


def test_nondeterminism_is_reported(monkeypatch):
    calls = []

    def one_more_request(st):
        calls.append(1)
        if len(calls) == 1:
            st.ledger.attempts += 1

    code, detail, result = run_main(
        monkeypatch, forged("fig8-acuerdo", one_more_request))
    assert code != 0 and result["correct"] is False
    assert any("nondeterminism" in p for p in detail["problems"])


def test_end_to_end_result_has_every_metric(monkeypatch):
    code, detail, result = run_main(monkeypatch, wl.WORKLOADS["farm-zipf"])
    assert code == 0 and result["correct"] and result["failed"] == 0
    names = json.loads((pathlib.Path(__file__).parent.parent
                        / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in names["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("samples" in n for n in detail["notes"])


def test_traced_run_accounts_for_its_wall_time(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "CHECKOUT", tmp_path)
    code, detail, result = run_main(monkeypatch, wl.WORKLOADS["fig8-zookeeper"],
                                    "--trace", "1")
    assert code == 0 and result["correct"]
    names = json.loads((pathlib.Path(__file__).parent.parent
                        / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in names["per_layer"]}
    acc = detail["accounting"]
    # Self times partition the traced section: no layer counted twice.
    assert acc["sum_self_s"] == pytest.approx(acc["traced_wall_s"], rel=1e-3)
    assert result["metrics"]["core.self_s"]["value"] == 0
    assert result["metrics"]["rdma.self_s"]["value"] == 0
    assert result["metrics"]["protocols.self_s"]["value"] > 0
    # The spans written out give back the same self times.
    spans = tracing.load_spans(tmp_path / ".perfbench" / "spans-fig8-zookeeper")
    assert tracing.self_seconds(*spans) == pytest.approx(acc["self_s"])


def test_tracing_changes_no_simulated_result():
    plain = one_rep("failover-acuerdo", SEEDS[1])
    with tracing.LayerTracer() as tracer:
        traced = one_rep("failover-acuerdo", SEEDS[1], tracer)
    assert traced.digest == plain.digest
    assert traced.trace_counts["MonitorRegistry.note"] > 0
    assert traced.trace_counts["proc_draws"] > 0


@pytest.mark.xfail(strict=True, reason="Acuerdo liveness defect: the group "
                   "ends with all five replicas up and no leader")
def test_failover_group_recovers_a_leader(monkeypatch):
    # Sub-seed 7001 is the second sub-seed of `--seed 7` at full scale.
    monkeypatch.setattr(wl, "FAILOVER_KILLS", 6)
    out = one_rep("failover-acuerdo", 7001).outcome
    # Whatever happens, unserved requests count as failed and say why.
    assert out.problems == []
    assert out.failed == out.attempted - out.counts["commits"]
    assert not out.failed or any("no leader" in n for n in out.notes)
    assert out.failed == 0
