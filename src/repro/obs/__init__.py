"""``repro.obs`` -- the toolchain's telemetry plane.

Hierarchical wall-clock spans + runtime metrics (counters, gauges,
p50/p90/p99 histograms) for the sweep engine, result cache, lane
engine, signing service, API and CLI.  Disabled by default; every
instrumentation site follows the trace bus's null-guard contract
(``tel = obs.get()`` / ``if tel is not None:``), except the always-on
count table (:func:`count` / :func:`counts` / :func:`counts_since`).  See
:mod:`repro.obs.core` for the model and :mod:`repro.obs.export` for
OpenMetrics/JSON/Chrome exports.
"""

from repro.obs.core import (
    NULL_SPAN,
    SCHEMA,
    Span,
    Telemetry,
    activate_from,
    count,
    counter,
    counts,
    counts_since,
    current_span_id,
    disable,
    drain,
    enable,
    enabled,
    gauge,
    get,
    histogram,
    propagation_context,
    span,
)

__all__ = [
    "NULL_SPAN",
    "SCHEMA",
    "Span",
    "Telemetry",
    "activate_from",
    "count",
    "counter",
    "counts",
    "counts_since",
    "current_span_id",
    "disable",
    "drain",
    "enable",
    "enabled",
    "gauge",
    "get",
    "histogram",
    "propagation_context",
    "span",
]
