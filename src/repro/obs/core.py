"""Hierarchical span tracer + runtime metrics for the whole toolchain.

Where :mod:`repro.trace` observes the *simulated hardware* (cycles,
stalls, energy events on the trace bus), this module observes the
*system that runs it*: the sweep engine and its pool workers, the
content-addressed result cache, the lane engine's block compiler, the
signing service, the public API and the ``runall`` CLI.

The model mirrors the trace bus's null-guard contract:

* one process-global :class:`Telemetry` object, ``None`` by default --
  every instrumentation site is behind ``tel = obs.get()`` /
  ``if tel is not None:`` (or the :func:`span` helper, which returns a
  shared no-op span while disabled), so the disabled cost is one global
  read per site and nothing allocates;
* **spans** nest through a :class:`~contextvars.ContextVar`, carry
  string labels, and record wall-clock start (epoch seconds, so spans
  from different processes align on one timeline), duration and
  outcome;
* **cross-process propagation**: :func:`Telemetry.propagation_context`
  captures ``(trace_id, current span id)``; a pool worker activates a
  fresh telemetry from it (:func:`activate_from`), so its spans parent
  under the dispatching task span, then ships everything back with
  :func:`drain` for the parent to :meth:`Telemetry.merge` -- a whole
  ``--jobs N`` sweep reconstructs as one tree;
* **metrics** live in a :class:`repro.trace.metrics.MetricsRegistry`
  (counters, gauges, histograms with p50/p90/p99), merged across
  processes by :meth:`MetricsRegistry.merge_state` -- counters add,
  histogram observations pool;
* the **count table** is the one exception to the null guard: a few
  always-on integer counts that no single object owns (:func:`count`,
  :func:`counts`, :func:`counts_since`).  A snapshot exports the
  table's movement since its plane started as plain counters, so a
  worker's counts reach the parent through :func:`drain` like any
  other metric.

Exports (OpenMetrics text, JSON, Chrome trace) live in
:mod:`repro.obs.export`; the ``python -m repro.obs report`` CLI in
:mod:`repro.obs.__main__`.
"""

from __future__ import annotations

import itertools
import os
import time
import uuid
from contextvars import ContextVar
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.metrics import Counter, Gauge, Histogram, MetricsRegistry

SCHEMA = "repro.obs.v1"

#: The id of the innermost active span in this execution context (the
#: parent of the next span started without an explicit parent).
_CURRENT: ContextVar[Optional[str]] = ContextVar("repro_obs_span",
                                                 default=None)

_SEQ = itertools.count(1)


def _new_span_id() -> str:
    """Process-unique span id; the pid prefix keeps ids from colliding
    across pool workers without any coordination."""
    return f"{os.getpid():x}-{next(_SEQ):x}"


def _new_trace_id() -> str:
    return uuid.uuid4().hex[:16]


class Span:
    """One timed operation; usable as a context manager or manually.

    ``with tel.span("sweep.task", artifact=...)`` starts the span,
    makes it the context parent for anything opened inside (including
    callees in other modules), and finishes it on exit with status
    ``"error"`` if an exception escaped.  The manual protocol --
    :meth:`start` / :meth:`finish` -- exists for callers whose span
    lifetime is not lexical (the pool loop holds one span per running
    worker); manual spans pass ``activate=False`` so they never leak
    into the caller's context.
    """

    __slots__ = ("name", "labels", "span_id", "parent_id", "trace_id",
                 "pid", "start_s", "wall_s", "status", "_tel", "_t0",
                 "_token")

    def __init__(self, tel: "Telemetry", name: str,
                 labels: dict[str, str],
                 parent_id: str | None = None) -> None:
        self._tel = tel
        self.name = name
        self.labels = labels
        self.span_id = _new_span_id()
        self.parent_id = parent_id
        self.trace_id = tel.trace_id
        self.pid = os.getpid()
        self.start_s = 0.0
        self.wall_s = 0.0
        self.status = "open"
        self._t0 = 0.0
        self._token = None

    def start(self, activate: bool = True) -> "Span":
        if self.parent_id is None:
            self.parent_id = _CURRENT.get()
        self.start_s = time.time()
        self._t0 = time.perf_counter()
        if activate:
            self._token = _CURRENT.set(self.span_id)
        return self

    def finish(self, status: str = "ok") -> "Span":
        if self.status != "open":
            return self
        self.wall_s = time.perf_counter() - self._t0
        self.status = status
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        self._tel._record(self)
        return self

    def annotate(self, **labels: str) -> "Span":
        self.labels.update(labels)
        return self

    def __enter__(self) -> "Span":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish("error" if exc_type is not None else "ok")
        return False

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "pid": self.pid,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "status": self.status,
            "labels": dict(self.labels),
        }


class _NullSpan:
    """The shared disabled-path span: every operation is a no-op."""

    __slots__ = ()

    def start(self, activate: bool = True) -> "_NullSpan":
        return self

    def finish(self, status: str = "ok") -> "_NullSpan":
        return self

    def annotate(self, **labels: str) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Telemetry:
    """One enabled telemetry plane: finished spans + a metrics registry.

    Constructed by :func:`enable` (root process) or
    :func:`activate_from` (pool workers).  The registry import is lazy
    so that importing :mod:`repro.obs` itself stays cheap for the
    modules that only null-check it.
    """

    def __init__(self, trace_id: str | None = None) -> None:
        from repro.trace.metrics import MetricsRegistry

        self.trace_id = trace_id or _new_trace_id()
        self.created_s = time.time()
        self.spans: list[dict] = []
        self.registry: MetricsRegistry = MetricsRegistry()
        self.merged_snapshots = 0
        self.counts_base = counts()

    # -- spans -----------------------------------------------------------

    def span(self, name: str, **labels: str) -> Span:
        """A context-manager span (started on ``__enter__``)."""
        return Span(self, name, labels)

    def begin(self, name: str, parent: str | None = None,
              activate: bool = False, **labels: str) -> Span:
        """Start a manual span now; pair with :meth:`Span.finish`."""
        return Span(self, name, labels, parent_id=parent).start(
            activate=activate)

    def emit(self, name: str, wall_s: float = 0.0,
             parent: str | None = None, status: str = "ok",
             start_s: float | None = None, **labels: str) -> Span:
        """Record an already-elapsed operation as a finished span."""
        span = Span(self, name, labels, parent_id=parent)
        if span.parent_id is None:
            span.parent_id = _CURRENT.get()
        span.start_s = (time.time() - wall_s if start_s is None
                        else start_s)
        span.wall_s = wall_s
        span.status = status
        self._record(span)
        return span

    def _record(self, span: Span) -> None:
        self.spans.append(span.as_dict())

    # -- metrics ---------------------------------------------------------

    def counter(self, name: str, **labels: str) -> "Counter":
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: str) -> "Gauge":
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels: str) -> "Histogram":
        return self.registry.histogram(name, **labels)

    # -- cross-process ---------------------------------------------------

    def propagation_context(self) -> dict:
        """What a worker needs to join this trace: the trace id and the
        span the worker's root span should parent under."""
        return {"trace_id": self.trace_id, "parent_id": _CURRENT.get()}

    def snapshot(self) -> dict:
        """The full telemetry state as pure JSON-serializable data:
        the registry plus the count table's movement since this plane
        started, as counters of the same names."""
        from repro.trace.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        metrics.merge_state(self.registry.state_dict())
        for name, n in counts_since(self.counts_base).items():
            if n:
                metrics.counter(name).inc(n)
        return {
            "schema": SCHEMA,
            "trace_id": self.trace_id,
            "pid": os.getpid(),
            "created_s": self.created_s,
            "spans": list(self.spans),
            "metrics": metrics.state_dict(),
        }

    def merge(self, snapshot: dict | None) -> None:
        """Fold a worker's :meth:`snapshot` into this telemetry: spans
        concatenate (they carry their own ids/parents), counters add,
        histogram observations pool."""
        if not snapshot:
            return
        self.spans.extend(snapshot.get("spans", []))
        self.registry.merge_state(snapshot.get("metrics", {}))
        self.merged_snapshots += 1


# ---------------------------------------------------------------------------
# The always-on count table
# ---------------------------------------------------------------------------

#: Process-local counts of events that no single object owns, kept
#: with telemetry on or off: the lane engine's process-wide code cache
#: compiles and hits.  Every other always-on count lives on the object
#: whose callers read it (``LaneEngine.counters()``,
#: ``SigningService.counters()``, ``ResultCache.hits``).  Only cold
#: paths count here -- compilation, never per-instruction execution.
_COUNTS: dict[str, int] = dict.fromkeys((
    "lane_blocks_compiled",
    "lane_code_cache_hits",
), 0)


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to the table's ``name`` count (a ``KeyError`` names a
    count the table does not declare)."""
    _COUNTS[name] += n


def counts() -> dict[str, int]:
    """A snapshot of the count table (the baseline for
    :func:`counts_since`)."""
    return dict(_COUNTS)


def counts_since(base: dict[str, int]) -> dict[str, int]:
    """Every count's movement since the snapshot ``base``."""
    return {name: n - base.get(name, 0) for name, n in _COUNTS.items()}


# ---------------------------------------------------------------------------
# The process-global plane (the null-guarded switch)
# ---------------------------------------------------------------------------

_TELEMETRY: Telemetry | None = None


def get() -> Telemetry | None:
    """The active telemetry, or ``None`` (the instrumentation guard)."""
    return _TELEMETRY


def enabled() -> bool:
    return _TELEMETRY is not None


def enable(trace_id: str | None = None) -> Telemetry:
    """Switch telemetry on (idempotent: an active plane is kept)."""
    global _TELEMETRY
    if _TELEMETRY is None:
        _TELEMETRY = Telemetry(trace_id)
    return _TELEMETRY


def disable() -> dict | None:
    """Switch telemetry off; returns the final snapshot (or ``None``)."""
    global _TELEMETRY
    tel, _TELEMETRY = _TELEMETRY, None
    _CURRENT.set(None)
    return tel.snapshot() if tel is not None else None


def span(name: str, **labels: str) -> Span | _NullSpan:
    """A span under the active telemetry, or the shared no-op span."""
    tel = _TELEMETRY
    if tel is None:
        return NULL_SPAN
    return tel.span(name, **labels)


def counter(name: str, **labels: str) -> "Counter | None":
    tel = _TELEMETRY
    return None if tel is None else tel.counter(name, **labels)


def gauge(name: str, **labels: str) -> "Gauge | None":
    tel = _TELEMETRY
    return None if tel is None else tel.gauge(name, **labels)


def histogram(name: str, **labels: str) -> "Histogram | None":
    tel = _TELEMETRY
    return None if tel is None else tel.histogram(name, **labels)


def current_span_id() -> str | None:
    return _CURRENT.get()


def propagation_context() -> dict | None:
    """Context for a worker process, or ``None`` while disabled."""
    tel = _TELEMETRY
    return None if tel is None else tel.propagation_context()


def activate_from(ctx: dict) -> Telemetry:
    """Worker-side: join the parent's trace.

    Replaces any existing plane with a fresh one carrying the parent's
    trace id, and roots this process's context at the parent span id so
    every span opened here parents into the parent's tree.
    """
    global _TELEMETRY
    _TELEMETRY = Telemetry(trace_id=ctx.get("trace_id"))
    _CURRENT.set(ctx.get("parent_id"))
    return _TELEMETRY


def drain() -> dict | None:
    """Worker-side: final snapshot, then disable (ship this back)."""
    return disable()
