"""Telemetry exports: OpenMetrics, span tree, Chrome trace, ledger
record, and the ``python -m repro.obs report`` CLI."""

import json

import pytest

from repro import obs
from repro.obs import export as ox
from repro.obs.__main__ import main as obs_main
from repro.obs.core import Telemetry


def _snapshot_with_activity():
    tel = obs.enable()
    with obs.span("sweep.run", jobs="2"):
        tel.counter("sweep_cache_hits").inc(3)
        tel.counter("sweep_cache_misses").inc(1)
        tel.counter("sweep_tasks_total", status="computed").inc(5)
        tel.gauge("pool_jobs").set(2)
        hist = tel.histogram("sweep_task_wall_s")
        for v in (0.1, 0.2, 0.4):
            hist.observe(v)
        with obs.span("sweep.task", task="7.3"):
            pass
    return obs.disable()


# ---------------------------------------------------------------------------
# OpenMetrics
# ---------------------------------------------------------------------------


def test_openmetrics_renders_and_parses():
    text = ox.to_openmetrics(_snapshot_with_activity())
    assert text.endswith("# EOF\n")
    families = ox.parse_openmetrics(text)
    hits = [s for s in families["sweep_cache_hits"]
            if s["sample"] == "sweep_cache_hits_total"]
    assert hits[0]["value"] == 3.0
    gauge = [s for s in families["pool_jobs"]]
    assert gauge[0]["value"] == 2.0
    # histograms export as summaries: quantiles + _count + _sum
    wall = families["sweep_task_wall_s"]
    p50 = [s for s in wall if s["labels"].get("quantile") == "0.5"]
    assert p50[0]["value"] == pytest.approx(0.2)
    count = [s for s in wall if s["sample"].endswith("_count")]
    assert count[0]["value"] == 3.0


def test_openmetrics_escapes_and_sanitizes_labels():
    tel = Telemetry()
    tel.counter("odd-name", path='a"b\\c').inc()
    text = ox.to_openmetrics(tel.snapshot())
    families = ox.parse_openmetrics(text)
    (sample,) = families["odd_name"]
    assert sample["labels"]["path"] == 'a"b\\c'


def test_parser_rejects_malformed_text():
    with pytest.raises(ValueError):
        ox.parse_openmetrics("no terminator\n")
    with pytest.raises(ValueError):
        ox.parse_openmetrics("orphan_total 1\n# EOF")


def test_series_metrics_are_skipped_in_openmetrics():
    tel = Telemetry()
    tel.registry.series("power_mw").append(0, 1.0)
    tel.counter("kept").inc()
    families = ox.parse_openmetrics(ox.to_openmetrics(tel.snapshot()))
    assert "kept" in families and "power_mw" not in families


# ---------------------------------------------------------------------------
# span tree + chrome
# ---------------------------------------------------------------------------


def test_span_tree_has_one_root_and_nested_children():
    snapshot = _snapshot_with_activity()
    roots, children = ox.span_tree(snapshot["spans"])
    assert len(roots) == 1 and roots[0]["name"] == "sweep.run"
    kids = children[roots[0]["span_id"]]
    assert [k["name"] for k in kids] == ["sweep.task"]
    rendered = ox.render_spans(snapshot["spans"])
    assert "sweep.run" in rendered and "sweep.task" in rendered


def test_orphan_spans_surface_as_extra_roots():
    spans = [
        {"name": "lost", "span_id": "a-1", "parent_id": "gone",
         "pid": 1, "start_s": 2.0, "wall_s": 0.1, "status": "ok",
         "labels": {}},
        {"name": "root", "span_id": "a-2", "parent_id": None,
         "pid": 1, "start_s": 1.0, "wall_s": 0.2, "status": "ok",
         "labels": {}},
    ]
    roots, _ = ox.span_tree(spans)
    assert [r["name"] for r in roots] == ["root", "lost"]


def test_chrome_export_is_a_trace_event_object():
    snapshot = _snapshot_with_activity()
    trace = ox.spans_to_chrome(snapshot)
    assert trace["otherData"]["trace_id"] == snapshot["trace_id"]
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert {s["name"] for s in slices} == {"sweep.run", "sweep.task"}
    assert all(s["ts"] >= 0 and s["dur"] > 0 for s in slices)


# ---------------------------------------------------------------------------
# files, ledger record, CLI
# ---------------------------------------------------------------------------


def test_write_export_writes_all_three_formats(tmp_path):
    paths = ox.write_export(_snapshot_with_activity(), str(tmp_path))
    snapshot = json.loads((tmp_path / "telemetry.json").read_text())
    assert snapshot["schema"] == "repro.obs.v1"
    ox.parse_openmetrics((tmp_path / "telemetry.om").read_text())
    trace = json.loads((tmp_path / "telemetry.trace.json").read_text())
    assert "traceEvents" in trace
    assert set(paths) == {"json", "openmetrics", "chrome"}


def test_telemetry_record_summarizes_headline_metrics():
    record = ox.telemetry_record(_snapshot_with_activity(),
                                 config="jobs=2", export_path="x.json")
    assert record["kind"] == "telemetry"
    assert record["data"]["cache"]["hits"] == 3.0
    assert record["data"]["cache"]["misses"] == 1.0
    assert record["data"]["tasks"] == 5.0
    assert record["data"]["task_wall_s"]["count"] == 3
    assert record["data"]["task_wall_s"]["p50"] == pytest.approx(0.2)
    assert record["data"]["span_roots"] == 1
    assert record["data"]["export"] == "x.json"
    assert record["wall_s"] > 0.0


def test_report_cli_prints_summary_and_exports(tmp_path, capsys):
    snap_path = tmp_path / "telemetry.json"
    snap_path.write_text(json.dumps(_snapshot_with_activity()))
    om_path = tmp_path / "out.om"
    chrome_path = tmp_path / "out.trace.json"
    rc = obs_main(["report", str(snap_path), "--spans", "--metrics",
                   "--openmetrics", str(om_path),
                   "--chrome", str(chrome_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "1 root(s)" in out
    assert "sweep.task" in out                  # span tree
    assert "sweep_cache_hits" in out            # metric table
    ox.parse_openmetrics(om_path.read_text())
    assert "traceEvents" in json.loads(chrome_path.read_text())


def test_report_cli_rejects_unknown_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "nope"}')
    with pytest.raises(SystemExit):
        obs_main(["report", str(bad)])
