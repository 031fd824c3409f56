"""Tests for the repro.telemetry observability layer."""

from __future__ import annotations

import json
import logging
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.baselines.cpu import CpuModel
from repro.baselines.npu import NpuPimModel
from repro.core.compiler import PrimeCompiler
from repro.core.executor import PrimeExecutor
from repro.core.scheduler import BankScheduler
from repro.crossbar.engine import CrossbarMVMEngine
from repro.device.cell import CellArray
from repro.nn.datasets import synthetic_mnist
from repro.nn.topology import parse_topology
from repro.params.crossbar import CrossbarParams
from repro.telemetry.metrics import SAMPLE_CAP, Histogram


@pytest.fixture(autouse=True)
def clean_telemetry():
    """Each test starts disabled and leaves no session behind."""
    telemetry.disable()
    yield
    telemetry.disable()


def test_disabled_by_default_and_null_span_is_shared():
    assert not telemetry.enabled()
    assert telemetry.session() is None
    span = telemetry.span("anything", attr=1)
    assert span is telemetry.NULL_SPAN
    # The null span is inert: context manager + set() both no-op.
    with span as s:
        assert s.set(more=2) is s
    telemetry.count("never.recorded", 5)
    telemetry.gauge("never.recorded", 1.0)
    telemetry.observe("never.recorded", 1.0)
    telemetry.model_event("never.recorded", 1e-9)
    assert telemetry.session() is None
    with pytest.raises(RuntimeError):
        telemetry.snapshot()


def test_disabled_hot_path_is_cheap():
    # Not a precise benchmark — just a guard against the no-op path
    # acquiring real work.  200k no-op counts in well under a second.
    start = time.perf_counter()
    for _ in range(200_000):
        telemetry.count("x", 1.0)
    assert time.perf_counter() - start < 1.0


def test_span_nesting_and_ordering():
    telemetry.enable()
    with telemetry.span("outer", a=1):
        with telemetry.span("inner1"):
            pass
        with telemetry.span("inner2") as s:
            s.set(detail="x")
    spans = telemetry.session().tracer.spans
    assert [r.name for r in spans] == ["outer", "inner1", "inner2"]
    outer, inner1, inner2 = spans
    assert outer.depth == 0 and outer.parent_index is None
    assert inner1.depth == 1 and inner1.parent_index == outer.index
    assert inner2.depth == 1 and inner2.parent_index == outer.index
    assert inner2.attrs == {"detail": "x"}
    # Start ordering and containment hold.
    assert outer.start_ns <= inner1.start_ns <= inner2.start_ns
    assert outer.end_ns >= inner2.end_ns
    assert telemetry.session().tracer.depth == 0


def test_span_stack_survives_exceptions():
    telemetry.enable()
    with pytest.raises(ValueError):
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                raise ValueError("boom")
    assert telemetry.session().tracer.depth == 0
    with telemetry.span("after"):
        pass
    after = telemetry.session().tracer.spans[-1]
    assert after.depth == 0 and after.parent_index is None


def test_track_label_is_thread_local_and_restored():
    tracer = telemetry.enable().tracer
    seen = {}

    def other_thread():
        with telemetry.span("elsewhere"):
            pass
        seen["track"] = tracer.spans[-1].track

    with tracer.on_track("replica:1"):
        with telemetry.span("inside"):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        with tracer.on_track("replica:0"):
            with telemetry.span("nested"):
                pass
        with telemetry.span("restored"):
            pass
    with telemetry.span("outside"):
        pass
    tracks = {s.name: s.track for s in tracer.spans}
    assert tracks == {
        "inside": "replica:1",
        "elsewhere": None,
        "nested": "replica:0",
        "restored": "replica:1",
        "outside": None,
    }
    assert seen["track"] is None


class TestSwapSession:
    def test_swap_returns_previous_and_installs_new(self):
        live = telemetry.enable()
        scratch = telemetry.TelemetrySession()
        assert telemetry.swap_session(scratch) is live
        assert telemetry.session() is scratch
        assert telemetry.swap_session(live) is scratch
        assert telemetry.session() is live

    def test_swap_to_none_disables(self):
        telemetry.enable()
        telemetry.swap_session(None)
        assert not telemetry.enabled()


class TestThreadSafety:
    """Registry and tracer mutation is safe under concurrency."""

    THREADS = 8
    ITERS = 300

    def test_concurrent_recording_loses_nothing(self):
        session = telemetry.enable()
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def record(tid):
            try:
                barrier.wait()
                for i in range(self.ITERS):
                    telemetry.count("smoke.n", 1.0, thread=tid)
                    telemetry.count("smoke.shared", 1.0)
                    telemetry.observe("smoke.ms", 1.0)
                    telemetry.gauge("smoke.depth", i)
                    with telemetry.span("smoke.span", thread=tid):
                        pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=record, args=(t,))
            for t in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert not errors
        m = session.metrics
        total = self.THREADS * self.ITERS
        assert m.counter_total("smoke.n") == total
        assert m.counter_value("smoke.shared") == total
        assert m.histogram("smoke.ms").count == total
        spans = [
            s for s in session.tracer.spans if s.name == "smoke.span"
        ]
        assert len(spans) == total
        assert all(s.end_ns is not None for s in spans)


def test_histogram_decimates_past_sample_cap():
    """Past SAMPLE_CAP retained samples the reservoir halves, while
    count, sum, min and max stay exact."""
    hist = Histogram("h")
    n = SAMPLE_CAP + 10
    for i in range(n):
        hist.observe(float(i))
    assert hist.sample_stride > 1
    assert len(hist.samples) < SAMPLE_CAP
    assert hist.count == n
    assert hist.total == float(sum(range(n)))
    assert (hist.minimum, hist.maximum) == (0.0, float(n - 1))


def test_metrics_registry_counters_gauges_histograms():
    telemetry.enable()
    telemetry.count("hits")
    telemetry.count("hits", 2.0)
    telemetry.count("hits", 1.0, kind="special")
    telemetry.gauge("level", 0.5, bank=3)
    for v in (1.0, 3.0, 2.0):
        telemetry.observe("lat", v)
    assert telemetry.counter_value("hits") == 3.0
    assert telemetry.counter_value("hits", kind="special") == 1.0
    assert telemetry.counter_total("hits") == 4.0
    assert telemetry.gauge_value("level", bank=3) == 0.5
    assert telemetry.gauge_value("missing") is None
    hist = telemetry.session().metrics.histogram("lat")
    assert hist.count == 3 and hist.minimum == 1.0 and hist.maximum == 3.0
    assert hist.mean == pytest.approx(2.0)
    with pytest.raises(ValueError):
        telemetry.session().metrics.counter("hits").add(-1.0)


def test_estimate_trace_cross_validates_analytical_totals():
    """The model-time trace is a second accounting of estimate()."""
    telemetry.enable()
    topology = parse_topology("xval-mlp", "784-64-10")
    plan = PrimeCompiler().compile(topology)
    report = PrimeExecutor().estimate(plan, batch=4096)

    events = [
        e
        for e in telemetry.session().tracer.model_events
        if e.track == "PRIME:xval-mlp"
    ]
    assert events, "estimate emitted no model events"
    dur_sum_s = sum(e.dur_ns for e in events) / 1e9
    assert dur_sum_s == pytest.approx(report.latency_s, rel=0.01)
    for stage in ("compute", "buffer", "memory"):
        energy_sum_j = (
            sum(e.attrs.get(f"{stage}_energy_nj", 0.0) for e in events)
            / 1e9
        )
        expected = getattr(report, f"{stage}_energy_j")
        assert energy_sum_j == pytest.approx(expected, rel=0.01)
    # The shared counters carry the same totals under PRIME labels.
    assert telemetry.counter_value(
        "model.latency_ns", system="PRIME", workload="xval-mlp"
    ) == pytest.approx(report.latency_s * 1e9, rel=0.01)
    # The bottleneck decision is surfaced both ways.
    assert report.extras["bottleneck_stage"]
    assert telemetry.gauge_value(
        "model.bottleneck_ns", workload="xval-mlp"
    ) == pytest.approx(report.extras["bottleneck_s"] * 1e9)


def test_baselines_emit_same_metric_names():
    telemetry.enable()
    topology = parse_topology("base-mlp", "784-64-10")
    cpu = CpuModel().estimate(topology, batch=64)
    pim = NpuPimModel(instances=64).estimate(topology, batch=64)
    for report in (cpu, pim):
        labels = {"system": report.system, "workload": "base-mlp"}
        assert telemetry.counter_value(
            "model.latency_ns", **labels
        ) == pytest.approx(report.latency_s * 1e9)
        for stage in ("compute", "buffer", "memory"):
            assert telemetry.counter_value(
                "model.energy_nj", stage=stage, **labels
            ) == pytest.approx(
                getattr(report, f"{stage}_energy_j") * 1e9
            )


def test_engine_counters_track_invocations_and_programs(rng, small_xbar):
    telemetry.enable()
    engine = CrossbarMVMEngine(small_xbar, rng=rng)
    w = rng.integers(-7, 8, size=(8, 4))
    engine.program(w)
    assert telemetry.counter_value("crossbar.programs") == 1
    assert telemetry.counter_value("crossbar.reprogram_ns") > 0
    engine.mvm(np.zeros(8, dtype=np.int64), with_noise=False)
    batch = np.zeros((5, 8), dtype=np.int64)
    engine.mvm_batch(batch, with_noise=False)
    assert telemetry.counter_value("mvm.invocations") == 6
    assert engine.mvm_invocations == 6
    assert telemetry.counter_value(
        "mvm.model_time_ns"
    ) == pytest.approx(6 * small_xbar.t_full_mvm * 1e9)


def test_scheduler_gauges_bank_utilization():
    telemetry.enable()
    topology = parse_topology("sched-mlp", "784-64-10")
    scheduler = BankScheduler()
    deployment = scheduler.deploy(topology, max_replicas=4)
    util = telemetry.gauge_value("scheduler.bank_utilization")
    assert util == pytest.approx(scheduler.utilization())
    assert telemetry.counter_value(
        "scheduler.banks_granted"
    ) == len(deployment.banks)
    scheduler.release("sched-mlp")
    assert telemetry.gauge_value(
        "scheduler.bank_utilization"
    ) == pytest.approx(0.0)
    assert telemetry.counter_value("scheduler.releases") == 1


def test_chrome_trace_is_valid_json_with_monotonic_ts(tmp_path):
    telemetry.enable()
    topology = parse_topology("trace-mlp", "784-64-10")
    plan = PrimeCompiler().compile(topology)
    PrimeExecutor().estimate(plan, batch=256)
    path = telemetry.write_chrome_trace(tmp_path / "trace.json")
    events = json.loads(path.read_text())
    assert isinstance(events, list) and events
    complete = [e for e in events if e["ph"] == "X"]
    assert complete
    for event in complete:
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert isinstance(event["name"], str)
    # ts is monotonic non-decreasing within each pid track.
    by_pid: dict[int, list[float]] = {}
    for event in complete:
        by_pid.setdefault(event["pid"], []).append(event["ts"])
    for ts_list in by_pid.values():
        assert ts_list == sorted(ts_list)
    # Every pid is named by a metadata event.
    meta_pids = {e["pid"] for e in events if e["ph"] == "M"}
    assert {e["pid"] for e in complete} <= meta_pids


def test_snapshot_and_summary_render(tmp_path, caplog):
    telemetry.enable()
    with telemetry.span("phase.one"):
        telemetry.count("things", 2)
        telemetry.gauge("level", 0.25)
        telemetry.observe("sizes", 10.0)
    snap = telemetry.snapshot()
    json.dumps(snap)  # fully serialisable
    assert snap["spans"][0]["name"] == "phase.one"
    assert any(c["name"] == "things" for c in snap["counters"])
    path = telemetry.write_snapshot(tmp_path / "snap.json")
    assert json.loads(path.read_text())["gauges"]
    text = telemetry.summary()
    assert "phase.one" in text and "things" in text and "level" in text
    # log_summary routes through the repro.telemetry logger.
    with caplog.at_level(logging.INFO, logger="repro.telemetry"):
        telemetry.log_summary()
    assert any("phase.one" in r.message for r in caplog.records)


def test_repro_logger_has_null_handler():
    import repro  # noqa: F401

    handlers = logging.getLogger("repro").handlers
    assert any(isinstance(h, logging.NullHandler) for h in handlers)


def test_functional_run_spans_and_counters(trained_tiny_mlp):
    telemetry.enable()
    topology, net = trained_tiny_mlp
    compiler = PrimeCompiler()
    executor = PrimeExecutor()
    plan = compiler.compile(topology)
    x, _ = synthetic_mnist(4, flat=True, seed=9)
    executor.run_functional(net, plan, x, rng=np.random.default_rng(0))
    spans = telemetry.session().tracer.spans
    names = [r.name for r in spans]
    assert "executor.run_functional" in names
    assert "executor.program_network" in names
    assert names.count("executor.layer") == 2  # two Dense layers
    # Each inline weight step splits into its plan phases; the ReLU
    # between the two is one activation span beside them.
    phases = [
        ("plan.split", {}),
        ("plan.counts", {"vectors": 4}),
        ("plan.digitise", {}),
        ("plan.sum", {}),
    ]
    assert [
        (
            r.name,
            spans[r.parent_index].name,
            [(c.name, c.attrs) for c in spans if c.parent_index == r.index],
        )
        for r in spans
        if r.name in ("executor.layer", "plan.activation")
    ] == [
        ("executor.layer", "executor.run_functional", phases),
        ("plan.activation", "executor.run_functional", []),
        ("executor.layer", "executor.run_functional", phases),
    ]
    assert telemetry.counter_value("executor.functional_runs") == 1
    assert telemetry.counter_value("mvm.invocations") > 0


def test_noisy_stack_draws_run_inside_plan_counts(
    monkeypatch, trained_tiny_mlp, trained_tiny_cnn
):
    """A noisy call reads its cells as it forms its counts: every
    read-noise draw of a seeded noisy forward, dense and conv steps
    alike, runs while ``plan.counts`` is the innermost open span."""
    monkeypatch.delenv("PRIME_FUSED", raising=False)
    conductances = CellArray.conductances
    innermost = []

    def spy(cells, with_read_noise=False):
        if with_read_noise:
            stack = telemetry.session().tracer._stack
            innermost.append(stack[-1].name if stack else None)
        return conductances(cells, with_read_noise)

    telemetry.enable()
    monkeypatch.setattr(CellArray, "conductances", spy)
    compiler = PrimeCompiler()
    executor = PrimeExecutor()
    mlp_topology, mlp = trained_tiny_mlp
    cnn_topology, cnn, cnn_x, _ = trained_tiny_cnn
    mlp_x, _ = synthetic_mnist(4, flat=True, seed=9)
    for topology, net, x in (
        (mlp_topology, mlp, mlp_x),
        (cnn_topology, cnn, cnn_x[:2]),
    ):
        executor.run_functional(
            net,
            compiler.compile(topology),
            x,
            rng=np.random.default_rng(0),
            with_noise=True,
        )
    assert innermost and set(innermost) == {"plan.counts"}
