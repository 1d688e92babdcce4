"""The span model and the null-guard contract of repro.obs."""

import os

import pytest

from repro import obs
from repro.obs.core import Telemetry
from repro.trace.metrics import MetricsRegistry


# ---------------------------------------------------------------------------
# disabled by default (the null guard)
# ---------------------------------------------------------------------------


def test_disabled_by_default():
    assert obs.get() is None
    assert not obs.enabled()
    assert obs.propagation_context() is None
    assert obs.counter("anything") is None
    assert obs.drain() is None


def test_disabled_span_is_the_shared_noop():
    span = obs.span("x", label="y")
    assert span is obs.NULL_SPAN
    with span as inner:
        assert inner is obs.NULL_SPAN
    # every protocol method is a no-op returning the singleton
    assert span.start().annotate(a="b").finish() is obs.NULL_SPAN


def test_enable_disable_round_trip():
    tel = obs.enable()
    assert obs.get() is tel
    assert obs.enable() is tel          # idempotent
    snapshot = obs.disable()
    assert obs.get() is None
    assert snapshot["schema"] == "repro.obs.v1"
    assert snapshot["trace_id"] == tel.trace_id
    assert obs.disable() is None        # second disable: nothing left


# ---------------------------------------------------------------------------
# span nesting and context propagation
# ---------------------------------------------------------------------------


def test_spans_nest_through_the_context():
    obs.enable()
    with obs.span("outer") as outer:
        assert obs.current_span_id() == outer.span_id
        with obs.span("inner") as inner:
            assert inner.parent_id == outer.span_id
        assert obs.current_span_id() == outer.span_id
    assert obs.current_span_id() is None
    spans = obs.disable()["spans"]
    assert [s["name"] for s in spans] == ["inner", "outer"]
    by_name = {s["name"]: s for s in spans}
    assert by_name["outer"]["parent_id"] is None
    assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]


def test_span_records_wall_time_status_and_labels():
    obs.enable()
    with obs.span("op", artifact="7.3"):
        pass
    try:
        with obs.span("bad"):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    spans = {s["name"]: s for s in obs.disable()["spans"]}
    assert spans["op"]["status"] == "ok"
    assert spans["op"]["labels"] == {"artifact": "7.3"}
    assert spans["op"]["wall_s"] >= 0.0
    assert spans["op"]["pid"] == os.getpid()
    assert spans["bad"]["status"] == "error"


def test_manual_begin_does_not_activate_by_default():
    tel = obs.enable()
    span = tel.begin("pool.slot", attempt="1")
    assert obs.current_span_id() is None     # caller context untouched
    span.finish("ok")
    span.finish("error")                     # double finish is a no-op
    (recorded,) = obs.disable()["spans"]
    assert recorded["status"] == "ok"


def test_emit_records_after_the_fact():
    tel = obs.enable()
    tel.emit("cache.hit", wall_s=0.25, artifact="t_7_3")
    (span,) = obs.disable()["spans"]
    assert span["wall_s"] == 0.25
    assert span["status"] == "ok"
    assert span["labels"]["artifact"] == "t_7_3"


# ---------------------------------------------------------------------------
# cross-process plumbing (simulated in-process with two Telemetry objects)
# ---------------------------------------------------------------------------


def test_propagation_context_carries_the_active_span():
    tel = obs.enable()
    with obs.span("root") as root:
        ctx = tel.propagation_context()
        assert ctx == {"trace_id": tel.trace_id,
                       "parent_id": root.span_id}
    obs.disable()


def test_activate_from_joins_the_parent_trace():
    parent = Telemetry()
    task = parent.begin("sweep.task")
    ctx = {"trace_id": parent.trace_id, "parent_id": task.span_id}

    child = obs.activate_from(ctx)
    assert child.trace_id == parent.trace_id
    with obs.span("worker"):
        pass
    snapshot = obs.drain()
    assert obs.get() is None
    (worker,) = snapshot["spans"]
    assert worker["parent_id"] == task.span_id
    assert worker["trace_id"] == parent.trace_id

    task.finish()
    parent.merge(snapshot)
    assert [s["name"] for s in parent.spans] == ["sweep.task", "worker"]


def test_merge_sums_same_labeled_counter_from_two_workers():
    parent = Telemetry()
    parent.counter("events", worker="shared").inc(1)
    for _ in range(2):
        worker = Telemetry(trace_id=parent.trace_id)
        worker.counter("events", worker="shared").inc(3)
        worker.histogram("latency_s").observe(0.5)
        parent.merge(worker.snapshot())
    assert parent.counter("events", worker="shared").value == 7
    assert parent.histogram("latency_s").count == 2
    assert parent.merged_snapshots == 2


def test_merge_none_and_empty_are_harmless():
    parent = Telemetry()
    parent.merge(None)
    parent.merge({})
    assert parent.spans == [] and parent.merged_snapshots == 0


# ---------------------------------------------------------------------------
# registry state round trip (the merge substrate)
# ---------------------------------------------------------------------------


def test_registry_state_dict_round_trips_losslessly():
    a = MetricsRegistry()
    a.counter("c", k="v").inc(2)
    a.gauge("g").set(1.5)
    a.series("s").append(1, 2.0)
    a.histogram("h").observe(0.25)
    b = MetricsRegistry()
    b.merge_state(a.state_dict())
    assert b.state_dict() == a.state_dict()
    # histograms pool raw observations, not summaries
    b.merge_state(a.state_dict())
    assert b.histogram("h").values == [0.25, 0.25]


# ---------------------------------------------------------------------------
# the always-on count table
# ---------------------------------------------------------------------------


def test_count_table_counts_with_telemetry_off():
    assert obs.get() is None
    base = obs.counts()
    obs.count("lane_code_cache_hits")
    obs.count("lane_blocks_compiled", 3)
    moved = obs.counts_since(base)
    assert set(moved) == set(base)
    assert moved["lane_code_cache_hits"] == 1
    assert moved["lane_blocks_compiled"] == 3
    assert sum(moved.values()) == 4


def test_count_table_rejects_undeclared_names():
    with pytest.raises(KeyError):
        obs.count("no_such_count")


def test_snapshot_exports_table_movement_since_the_plane_started():
    obs.count("lane_blocks_compiled", 5)      # before: not exported
    tel = obs.enable()
    obs.count("lane_blocks_compiled", 2)
    tel.counter("sweep_cache_hits").inc()
    snapshot = obs.disable()
    exported = {(m["name"], m["kind"]): m["value"]
                for m in snapshot["metrics"]["metrics"]}
    assert exported[("lane_blocks_compiled", "counter")] == 2
    assert exported[("sweep_cache_hits", "counter")] == 1
    # unmoved counts stay out; the live registry holds no copy
    assert ("lane_code_cache_hits", "counter") not in exported
    assert "lane_blocks_compiled" not in {
        name for name, _, _ in tel.registry._metrics}
