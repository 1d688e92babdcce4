"""Exports for a telemetry snapshot: OpenMetrics, JSON, span tree,
Chrome trace, ledger record.

A snapshot is the pure-data dict produced by
:meth:`repro.obs.core.Telemetry.snapshot` (``schema: repro.obs.v1``):
``spans`` (finished span dicts from every process in the trace) plus
``metrics`` (a :meth:`MetricsRegistry.state_dict`).  Everything here is
read-only over that dict, so reports can be regenerated from a saved
``telemetry.json`` long after the run.
"""

from __future__ import annotations

import json
import os

from repro.trace.metrics import QUANTILES, Histogram, MetricsRegistry


def registry_from_state(state: dict) -> MetricsRegistry:
    """Rebuild a registry from a snapshot's ``metrics`` state dict."""
    registry = MetricsRegistry()
    registry.merge_state(state or {})
    return registry


# ---------------------------------------------------------------------------
# OpenMetrics text
# ---------------------------------------------------------------------------

def _sanitize(name: str) -> str:
    """Map a metric/label name onto the OpenMetrics charset."""
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if not out or not (out[0].isalpha() or out[0] == "_"):
        out = "_" + out
    return out


def _labelset(labels: dict[str, str], extra: dict[str, str] | None = None
              ) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{_sanitize(k)}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in sorted(merged.items()))
    return "{" + body + "}"


def _fmt(value: float) -> str:
    value = float(value)
    return str(int(value)) if value == int(value) else repr(value)


def to_openmetrics(snapshot: dict) -> str:
    """Render the snapshot's metrics as OpenMetrics text.

    Counters emit a ``counter`` family with the ``_total`` sample
    suffix; gauges emit plainly; histograms emit as ``summary``
    families (``{quantile="0.5"}`` samples plus ``_count``/``_sum``).
    Series (cycle-indexed traces) have no OpenMetrics shape and are
    skipped.  Ends with the mandatory ``# EOF``.
    """
    registry = registry_from_state(snapshot.get("metrics", {}))
    families: dict[tuple[str, str], list[tuple[dict, object]]] = {}
    for (name, kind, labels), metric in sorted(
            registry._metrics.items(), key=lambda kv: kv[0][:2]):
        if kind == "series":
            continue
        families.setdefault((_sanitize(name), kind), []).append(
            (dict(labels), metric))

    lines: list[str] = []
    for (name, kind), entries in families.items():
        if kind == "counter":
            lines.append(f"# TYPE {name} counter")
            for labels, metric in entries:
                lines.append(f"{name}_total{_labelset(labels)} "
                             f"{_fmt(metric.value)}")
        elif kind == "gauge":
            lines.append(f"# TYPE {name} gauge")
            for labels, metric in entries:
                lines.append(f"{name}{_labelset(labels)} "
                             f"{_fmt(metric.value)}")
        elif kind == "histogram":
            lines.append(f"# TYPE {name} summary")
            for labels, metric in entries:
                assert isinstance(metric, Histogram)
                for q in QUANTILES:
                    lines.append(
                        f"{name}{_labelset(labels, {'quantile': str(q)})}"
                        f" {_fmt(metric.quantile(q))}")
                lines.append(f"{name}_count{_labelset(labels)} "
                             f"{_fmt(metric.count)}")
                lines.append(f"{name}_sum{_labelset(labels)} "
                             f"{_fmt(metric.sum)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> dict[str, list[dict]]:
    """Minimal OpenMetrics parser (the subset :func:`to_openmetrics`
    emits), used by the CI smoke assertions and the tests.

    Returns ``{family_name: [{"sample", "labels", "value"}, ...]}`` and
    raises ``ValueError`` on malformed lines or a missing ``# EOF``.
    """
    families: dict[str, list[dict]] = {}
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("missing # EOF terminator")
    family = None
    for line in lines[:-1]:
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"malformed TYPE line: {line!r}")
            family = parts[2]
            families.setdefault(family, [])
            continue
        if line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise ValueError(f"malformed sample line: {line!r}")
        sample, labels = name_part, {}
        if "{" in name_part:
            sample, _, rest = name_part.partition("{")
            body = rest.rstrip("}")
            for item in body.split(","):
                if not item:
                    continue
                key, _, raw = item.partition("=")
                if not raw.startswith('"') or not raw.endswith('"'):
                    raise ValueError(f"malformed label in: {line!r}")
                labels[key] = raw[1:-1].replace('\\"', '"').replace(
                    "\\\\", "\\")
        value = float(value_part)
        if family is None or not sample.startswith(family):
            raise ValueError(f"sample {sample!r} outside its family "
                             f"(current: {family!r})")
        families[family].append(
            {"sample": sample, "labels": labels, "value": value})
    return families


# ---------------------------------------------------------------------------
# Span tree
# ---------------------------------------------------------------------------

def span_tree(spans: list[dict]) -> tuple[list[dict], dict[str, list[dict]]]:
    """Index spans into ``(roots, children_by_parent_id)``.

    A root is a span whose ``parent_id`` is ``None`` or references a
    span not present in the snapshot (a worker subtree whose parent
    record was lost still renders, as its own root).
    """
    by_id = {s["span_id"]: s for s in spans}
    roots: list[dict] = []
    children: dict[str, list[dict]] = {}
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None and parent in by_id:
            children.setdefault(parent, []).append(s)
        else:
            roots.append(s)
    for group in children.values():
        group.sort(key=lambda s: s.get("start_s", 0.0))
    roots.sort(key=lambda s: s.get("start_s", 0.0))
    return roots, children


def render_spans(spans: list[dict]) -> str:
    """ASCII tree of the span hierarchy with wall times and status."""
    roots, children = span_tree(spans)
    lines: list[str] = []

    def walk(span: dict, depth: int) -> None:
        labels = span.get("labels") or {}
        label_txt = ("  [" + " ".join(f"{k}={v}"
                                      for k, v in sorted(labels.items()))
                     + "]") if labels else ""
        status = span.get("status", "?")
        flag = "" if status == "ok" else f"  !{status}"
        lines.append(f"{'  ' * depth}{span['name']:<28} "
                     f"{span.get('wall_s', 0.0) * 1e3:>9.2f} ms"
                     f"  pid={span.get('pid')}{flag}{label_txt}")
        for child in children.get(span["span_id"], []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    if not lines:
        return "(no spans)"
    return "\n".join(lines)


def spans_to_chrome(snapshot: dict) -> dict:
    """Spans as a Chrome ``trace_event`` object (one track per pid),
    reusing :func:`repro.trace.chrome.trace_object` so the wall-clock
    telemetry opens in the same viewer as the cycle-domain traces."""
    from repro.trace.chrome import trace_object

    spans = snapshot.get("spans", [])
    if spans:
        t0 = min(s.get("start_s", 0.0) for s in spans)
    else:
        t0 = 0.0
    events: list[dict] = []
    for pid in sorted({s.get("pid", 0) for s in spans}):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"pid {pid}"}})
    for s in spans:
        event = {
            "name": s["name"],
            "ph": "X",
            "pid": s.get("pid", 0),
            "tid": 1,
            "ts": (s.get("start_s", 0.0) - t0) * 1e6,
            "dur": max(s.get("wall_s", 0.0), 1e-6) * 1e6,
            "args": {"status": s.get("status"),
                     "span_id": s.get("span_id"),
                     **(s.get("labels") or {})},
        }
        events.append(event)
    return trace_object(events, other={"trace_id": snapshot.get("trace_id"),
                                       "schema": snapshot.get("schema")})


# ---------------------------------------------------------------------------
# Files + ledger
# ---------------------------------------------------------------------------

def default_obs_dir() -> str:
    """Where telemetry lands by default: ``$REPRO_OBS_DIR`` or
    ``results/telemetry`` under the repo root."""
    from repro.trace.record import repo_root

    return os.environ.get(
        "REPRO_OBS_DIR", os.path.join(repo_root(), "results", "telemetry"))


def write_export(snapshot: dict, out_dir: str | None = None) -> dict[str, str]:
    """Write ``telemetry.json`` + ``telemetry.om`` (+ chrome trace)
    under ``out_dir``; returns ``{format: path}``."""
    from repro.trace.chrome import write_trace

    out_dir = out_dir or default_obs_dir()
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "json": os.path.join(out_dir, "telemetry.json"),
        "openmetrics": os.path.join(out_dir, "telemetry.om"),
        "chrome": os.path.join(out_dir, "telemetry.trace.json"),
    }
    with open(paths["json"], "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(paths["openmetrics"], "w", encoding="utf-8") as fh:
        fh.write(to_openmetrics(snapshot))
    write_trace(paths["chrome"], spans_to_chrome(snapshot))
    return paths


def _metric_value(registry: MetricsRegistry, name: str, kind: str = "counter"
                  ) -> float:
    """Sum of a metric family's values across label sets (0 if absent)."""
    total = 0.0
    for (mname, mkind, _), metric in registry._metrics.items():
        if mname == name and mkind == kind:
            total += getattr(metric, "value", 0.0)
    return total


def telemetry_record(snapshot: dict, artifact: str = "telemetry",
                     config: str = "", export_path: str | None = None
                     ) -> dict:
    """A ``kind="telemetry"`` ledger record summarizing the snapshot:
    headline cache/task metrics in ``data`` plus the span
    count, so the regression ledger can diff runtime health between
    commits without parsing the full export."""
    from repro.trace.record import bench_record

    registry = registry_from_state(snapshot.get("metrics", {}))
    spans = snapshot.get("spans", [])
    task_hist = Histogram()
    for (name, kind, _), metric in registry._metrics.items():
        if name == "sweep_task_wall_s" and kind == "histogram":
            task_hist.values.extend(metric.values)
    roots, _ = span_tree(spans)
    wall_s = max((s.get("wall_s", 0.0) for s in roots), default=0.0)
    data = {
        "trace_id": snapshot.get("trace_id"),
        "spans": len(spans),
        "span_roots": len(roots),
        "pids": len({s.get("pid") for s in spans}),
        "cache": {
            "hits": _metric_value(registry, "sweep_cache_hits"),
            "misses": _metric_value(registry, "sweep_cache_misses"),
            "writes": _metric_value(registry, "sweep_cache_writes"),
            "read_bytes": _metric_value(registry, "sweep_cache_read_bytes"),
            "written_bytes": _metric_value(registry,
                                           "sweep_cache_written_bytes"),
        },
        "tasks": _metric_value(registry, "sweep_tasks_total"),
        "retries": _metric_value(registry, "sweep_retries_total"),
        "reaped": _metric_value(registry, "sweep_reaped_total"),
        "task_wall_s": task_hist.summary(),
    }
    if export_path:
        data["export"] = export_path
    return bench_record(artifact, config=config, wall_s=wall_s,
                        data=data, kind="telemetry")
