"""Process-pool sweep engine with memoized artifact results.

Runs a list of :class:`~repro.harness.registry.ArtifactSpec` tasks --
the paper's full artifact cross-product, or any ``--only`` slice of it
-- either inline (``jobs=1``) or fanned out over worker processes,
memoizing each task's payload in a
:class:`~repro.sweep.cache.ResultCache` keyed by
:func:`~repro.sweep.keys.artifact_key`.  A warm cache therefore replays
the whole sweep without running a single Pete/Monte/Billie simulation.

Unit phase: with ``jobs > 1``, the pool's tasks are the artifacts that
read no shared-model unit (:mod:`repro.model.units`), then every unit
the others declare that this process does not hold yet, each computed
once, in the order the specs first declare it.  The parent seeds each
unit into its memos as it lands and renders a reader inline as soon as
its last unit has landed, between pool turns.  Unit tasks write no
cache entry, ledger record or task count; a unit that keeps failing
fails its readers at once.

Robustness: every task gets a bounded number of retries and graceful
degradation -- a task that keeps failing is reported and *skipped*,
never fatal to the sweep.  Pool tasks (unit-free artifacts and units)
each run in a dedicated worker process under a per-task timeout whose
clock starts when the task actually starts (queued tasks are never
falsely timed out), and a genuinely hung simulation is killed, freeing
its slot instead of stalling the sweep.  Everything that runs in the
parent -- an inline run, and a pooled run's unit readers -- has no
timeout; a reader that reads a unit it does not declare computes it
there (``SweepResult.units_inline``).  Cache entries and ledger
records are written as each task completes, so an interrupted cold
sweep still warms the cache for its rerun (in a pooled run, a reader's
entry lands as soon as its units have).  Each task emits one ``sweep``
record (status, attempts, wall-clock, cycles, energy) into the
:mod:`repro.regress` ledger, so ``python -m repro.regress diff`` can
compare serial vs parallel or cold vs warm runs shard-against-shard.
"""

from __future__ import annotations

import functools
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait

from typing import TYPE_CHECKING

from repro import obs
from repro.sweep.keys import artifact_key

if TYPE_CHECKING:
    from repro.energy.calibration import Calibration

#: Per-task wall-clock budget of a pool task, measured from the moment
#: its worker process starts (work in the parent -- inline runs and a
#: pooled run's unit readers -- is not preemptible and ignores it).
DEFAULT_TIMEOUT_S = 600.0
#: Additional attempts after the first failure.
DEFAULT_RETRIES = 1

#: Grace period between SIGTERM and SIGKILL when reaping a hung worker.
_KILL_GRACE_S = 5.0


def _compute_payload(kind: str, name: str,
                     calibration: "Calibration | None" = None) -> dict:
    """Default task body (top-level so pool workers can unpickle it).

    ``calibration`` installs the matching
    :class:`~repro.model.system.SystemModel` around the producer, so a
    worker process -- which does not share the parent's session state
    under ``spawn``/``forkserver`` start methods -- prices with the
    same calibration the result will be cached under.  A ``"unit"``
    task fills one shared-model unit (:func:`repro.model.units.compute`),
    which no calibration enters.
    """
    if kind == "unit":
        from repro.model import units

        return units.compute(name)
    from repro.harness.registry import get_spec

    spec = get_spec(kind, name)
    if calibration is None:
        return spec.payload()
    from repro.model.system import SystemModel, use_model

    with use_model(SystemModel(calibration)):
        return spec.payload()


def _pool_worker(conn, compute, kind: str, name: str,
                 obs_ctx: dict | None = None) -> None:
    """Run one task in a dedicated process, reporting over ``conn``.

    The message is ``(status, value, telemetry)``: when ``obs_ctx``
    joined the worker to the parent's trace, ``telemetry`` is the
    drained snapshot, whose spans are parented under the dispatching
    task span (else ``None``).
    """
    if obs_ctx is not None:
        obs.activate_from(obs_ctx)
    span = obs.span("sweep.worker", kind=kind, task=name).start()
    try:
        message = ("ok", compute(kind, name))
        span.finish("ok")
    except BaseException as exc:
        span.finish("error")
        message = ("error", f"{type(exc).__name__}: {exc}")
    try:
        conn.send((*message, obs.drain()))
    except Exception as exc:
        conn.send(("error", f"unsendable result: "
                            f"{type(exc).__name__}: {exc}", None))
    finally:
        conn.close()


def _reap(proc) -> None:
    """Terminate a worker, escalating to SIGKILL if it ignores SIGTERM."""
    proc.terminate()
    proc.join(timeout=_KILL_GRACE_S)
    if proc.is_alive():
        proc.kill()
        proc.join()


@dataclass(frozen=True)
class _UnitTask:
    """A pool task that fills one shared-model unit."""

    name: str
    kind = "unit"
    key = property(lambda self: (self.kind, self.name))


@dataclass
class TaskOutcome:
    """What happened to one artifact task."""

    kind: str
    name: str
    status: str                 # "hit" | "computed" | "failed"
    wall_s: float = 0.0
    attempts: int = 0
    error: str | None = None
    payload: dict | None = None
    reaped: int = 0             # attempts killed for exceeding timeout

    @property
    def ok(self) -> bool:
        return self.status in ("hit", "computed")

    @property
    def retries(self) -> int:
        return max(0, self.attempts - 1)

    @property
    def artifact(self) -> str:
        return f"{self.kind}_{self.name}"


@dataclass
class SweepResult:
    """Outcomes of one engine run, in task order."""

    outcomes: list[TaskOutcome]
    jobs: int
    #: ResultCache hit/miss movement during this run (0/0 uncached)
    cache_hits: int = 0
    cache_misses: int = 0
    #: units computed by pool tasks; unit memo misses while rendering
    #: their readers (0 when every producer declares what it reads)
    units: int = 0
    units_inline: int = 0

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "hit")

    @property
    def computed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "computed")

    @property
    def failed(self) -> list[TaskOutcome]:
        return [o for o in self.outcomes if not o.ok]

    @property
    def reaped(self) -> int:
        return sum(o.reaped for o in self.outcomes)

    @property
    def retries(self) -> int:
        return sum(o.retries for o in self.outcomes)

    def summary(self) -> str:
        out = (f"sweep: {len(self.outcomes)} artifacts, "
               f"{self.hits} cached, {self.computed} computed, "
               f"{len(self.failed)} failed, jobs={self.jobs}"
               f"; cache {self.cache_hits} hits / "
               f"{self.cache_misses} misses"
               f"; units {self.units} pooled / {self.units_inline} inline")
        if self.units_inline:
            out += " (undeclared unit reads ran in the parent, untimed)"
        if self.reaped:
            out += f"; {self.reaped} reaped"
        return out


class SweepEngine:
    """Executes artifact tasks with caching, retry and timeouts.

    ``cache=None`` disables memoization; ``ledger=None`` uses the
    env-gated default (:func:`repro.regress.ledger.default_ledger`), so
    unit tests stay IO-free.  ``calibration`` is folded into the cache
    key *and* threaded into the default task body, which installs it
    around the producer in every worker -- pooled results are always
    priced with the calibration they are cached under.  ``compute`` is
    injectable for tests; an injected compute is responsible for its
    own calibration handling (the engine still keys the cache with
    ``calibration``), and in a pooled run it also receives a
    ``("unit", name)`` task for each unit the specs declare.
    """

    def __init__(self, jobs: int = 1, cache=None,
                 timeout_s: float = DEFAULT_TIMEOUT_S,
                 retries: int = DEFAULT_RETRIES,
                 ledger=None, calibration=None, compute=None,
                 mp_context: str | None = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        #: multiprocessing start method for pooled runs (``"fork"`` /
        #: ``"spawn"`` / ``None`` = platform default); injectable so
        #: the telemetry propagation tests cover both methods
        self.mp_context = mp_context
        self.cache = cache
        self.timeout_s = timeout_s
        self.retries = max(0, retries)
        if ledger is None:
            from repro.regress.ledger import default_ledger

            ledger = default_ledger()
        self.ledger = ledger
        self.calibration = calibration
        if compute is None:
            compute = _compute_payload
            if calibration is not None:
                compute = functools.partial(_compute_payload,
                                            calibration=calibration)
        self.compute = compute

    # -- public API ---------------------------------------------------------

    def run(self, specs) -> SweepResult:
        specs = list(specs)
        outcomes: dict[tuple[str, str], TaskOutcome] = {}
        keys: dict[tuple[str, str], str] = {}
        cache_base = ((self.cache.hits, self.cache.misses)
                      if self.cache is not None else (0, 0))

        units = (0, 0)
        with obs.span("sweep.run", jobs=str(self.jobs),
                      tasks=str(len(specs))):
            settle_hit = self._settler(outcomes, keys, emit_span=True)
            pending = []
            for spec in specs:
                if self.cache is not None:
                    start = time.perf_counter()
                    keys[spec.key] = artifact_key(
                        spec, calibration=self.calibration)
                    payload = self.cache.get(keys[spec.key])
                    if payload is not None:
                        settle_hit(spec, TaskOutcome(
                            spec.kind, spec.name, "hit",
                            wall_s=time.perf_counter() - start,
                            payload=payload))
                        continue
                pending.append(spec)

            if pending:
                if self.jobs == 1:
                    self._run_inline(pending, outcomes, keys)
                else:
                    units = self._run_units(pending, outcomes, keys)

        result = SweepResult([outcomes[spec.key] for spec in specs],
                             jobs=self.jobs, units=units[0],
                             units_inline=units[1])
        if self.cache is not None:
            result.cache_hits = self.cache.hits - cache_base[0]
            result.cache_misses = self.cache.misses - cache_base[1]
        return result

    def _note_outcome(self, outcome: TaskOutcome,
                      emit_span: bool = False) -> None:
        """Per-task telemetry: status counter, latency histogram,
        retry/reap counters; ``emit_span`` also records the task as an
        after-the-fact span (cache hits and inline tasks -- pooled
        attempts already hold live ``sweep.task`` spans)."""
        tel = obs.get()
        if tel is None:
            return
        tel.counter("sweep_tasks_total", status=outcome.status).inc()
        tel.histogram("sweep_task_wall_s").observe(outcome.wall_s)
        if outcome.retries:
            tel.counter("sweep_retries_total").inc(outcome.retries)
        if outcome.reaped:
            tel.counter("sweep_reaped_total").inc(outcome.reaped)
        if emit_span:
            tel.emit("sweep.task", wall_s=outcome.wall_s,
                     status="ok" if outcome.ok else "error",
                     kind=outcome.kind, task=outcome.name,
                     result=outcome.status)

    # -- completion ---------------------------------------------------------

    def _settler(self, outcomes, keys, emit_span: bool = False):
        """The callback that settles one artifact task: its outcome,
        cache entry and ledger record are persisted immediately, so an
        interrupted sweep keeps every already-computed payload."""

        def settle(spec, outcome: TaskOutcome) -> None:
            outcomes[spec.key] = outcome
            if outcome.status == "computed" and self.cache is not None:
                self.cache.put(keys[spec.key], outcome.payload,
                               artifact=outcome.artifact)
            self.ledger.append(self._record(outcome))
            self._note_outcome(outcome, emit_span=emit_span)

        return settle

    # -- execution paths ----------------------------------------------------

    def _run_inline(self, pending, outcomes, keys) -> None:
        settle = self._settler(outcomes, keys, emit_span=True)
        for spec in pending:
            settle(spec, self._compute_inline(spec))

    def _compute_inline(self, spec) -> TaskOutcome:
        """Compute ``spec`` in this process, retrying, with no timeout."""
        start = time.perf_counter()
        error = None
        for attempt in range(1, self.retries + 2):
            try:
                payload = self.compute(spec.kind, spec.name)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                continue
            return TaskOutcome(spec.kind, spec.name, "computed",
                               wall_s=time.perf_counter() - start,
                               attempts=attempt, payload=payload)
        return TaskOutcome(spec.kind, spec.name, "failed",
                           wall_s=time.perf_counter() - start,
                           attempts=self.retries + 1, error=error)

    def _run_units(self, pending, outcomes, keys) -> tuple[int, int]:
        """Pool the unit-free artifacts, then each unit the rest read
        that this process lacks, in the order the specs first declare
        it.  Each unit is seeded here as it lands, and each reader is
        rendered here, without a timeout, as soon as its last unit has
        landed.  A reader fails unrendered as soon as one of its units
        fails: rendering would recompute the unit here, where nothing
        can time it out.  Returns ``(units computed, unit memo misses
        while rendering)``."""
        from repro.model import units

        readers = [spec for spec in pending if spec.units]
        plan = units.plan(name for spec in readers for name in spec.units)
        settle = self._settler(outcomes, keys)
        settle_here = self._settler(outcomes, keys, emit_span=True)
        ready: deque = deque()
        lacking: dict[tuple[str, str], set[str]] = {}
        computed = inline = 0

        def render(spec) -> None:
            nonlocal inline
            misses = units.misses()
            settle_here(spec, self._compute_inline(spec))
            inline += units.misses() - misses

        for spec in readers:
            lacks = set(spec.units).intersection(plan)
            if lacks:
                lacking[spec.key] = lacks
            else:
                ready.append(functools.partial(render, spec))

        def settled(task, outcome: TaskOutcome) -> None:
            """Settle an artifact; or seed a unit and queue each reader
            it completes, or fail each reader of a unit that failed."""
            nonlocal computed
            if task.kind != "unit":
                settle(task, outcome)
                return
            if outcome.ok:
                units.seed(outcome.payload)
                computed += 1
            for spec in readers:
                lacks = lacking.get(spec.key)
                if lacks is None or task.name not in lacks:
                    continue
                lacks.discard(task.name)
                if not outcome.ok:
                    del lacking[spec.key]
                    settle_here(spec, TaskOutcome(
                        spec.kind, spec.name, "failed",
                        error=f"unit {task.name}: {outcome.error}"))
                elif not lacks:
                    del lacking[spec.key]
                    ready.append(functools.partial(render, spec))

        self._run_pool([spec for spec in pending if not spec.units]
                       + [_UnitTask(name) for name in plan], settled, ready)
        return computed, inline

    def _run_pool(self, pending, settled, ready: deque) -> None:
        """One dedicated worker process per task attempt.

        At most ``self.jobs`` workers run at once.  Each worker reports
        over a pipe; its deadline is measured from ``Process.start()``,
        and a worker that outlives it is killed -- the slot frees up
        for the queued/retried tasks instead of the sweep blocking on a
        hung simulation.  ``settled(task, outcome)`` receives each
        task's final outcome.  ``ready`` is a deque of work for this
        process, which ``settled`` may extend: once every free slot is
        refilled, each pool turn runs one item, and the pipes are
        polled without waiting while more items are ready.
        """
        ctx = multiprocessing.get_context(self.mp_context)
        tel = obs.get()
        queue = deque((spec, 1) for spec in pending)
        first_start: dict[tuple[str, str], float] = {}
        reap_counts: dict[tuple[str, str], int] = {}
        # recv conn -> (proc, spec, attempt, t0, task_span)
        running: dict[object, tuple] = {}

        def settle(spec, attempt, status, payload=None, error=None):
            settled(spec, TaskOutcome(
                spec.kind, spec.name, status,
                wall_s=time.perf_counter() - first_start[spec.key],
                attempts=attempt, error=error, payload=payload,
                reaped=reap_counts.get(spec.key, 0)))

        def retry_or_fail(spec, attempt, error):
            if attempt <= self.retries:
                queue.append((spec, attempt + 1))
            else:
                settle(spec, attempt, "failed", error=error)

        try:
            while queue or running or ready:
                while queue and len(running) < self.jobs:
                    spec, attempt = queue.popleft()
                    recv, send = ctx.Pipe(duplex=False)
                    task_span = None
                    obs_ctx = None
                    if tel is not None:
                        task_span = tel.begin(
                            "sweep.task", kind=spec.kind, task=spec.name,
                            attempt=str(attempt))
                        obs_ctx = {"trace_id": tel.trace_id,
                                   "parent_id": task_span.span_id}
                    proc = ctx.Process(
                        target=_pool_worker,
                        args=(send, self.compute, spec.kind, spec.name,
                              obs_ctx),
                        daemon=True)
                    proc.start()
                    send.close()
                    first_start.setdefault(spec.key, time.perf_counter())
                    running[recv] = (proc, spec, attempt,
                                     time.perf_counter(), task_span)

                if ready:
                    ready.popleft()()
                if not running:
                    continue
                budget = 0.0 if ready else min(
                    t0 + self.timeout_s
                    for _, _, _, t0, _ in running.values()
                ) - time.perf_counter()
                for conn in _connection_wait(list(running),
                                             timeout=max(0.0, budget)):
                    proc, spec, attempt, _, task_span = running.pop(conn)
                    try:
                        status, value, snapshot = conn.recv()
                    except (EOFError, ValueError):
                        status, value, snapshot = "error", None, None
                    conn.close()
                    proc.join()
                    if tel is not None:
                        tel.merge(snapshot)
                    if task_span is not None:
                        task_span.annotate(result=status).finish(
                            "ok" if status == "ok" else "error")
                    if status == "ok":
                        settle(spec, attempt, "computed", payload=value)
                    else:
                        error = value or (f"worker died (exit code "
                                          f"{proc.exitcode})")
                        retry_or_fail(spec, attempt, error)

                now = time.perf_counter()
                for conn, (proc, spec, attempt, t0,
                           task_span) in list(running.items()):
                    if now - t0 < self.timeout_s:
                        continue
                    del running[conn]
                    conn.close()
                    _reap(proc)
                    reap_counts[spec.key] = reap_counts.get(spec.key, 0) + 1
                    if task_span is not None:
                        task_span.annotate(result="reaped").finish("error")
                    retry_or_fail(spec, attempt,
                                  f"timed out after {self.timeout_s:g}s")
        finally:
            # an interrupt/crash must not leak live workers (or spans)
            for conn, (proc, _, _, _, task_span) in running.items():
                conn.close()
                _reap(proc)
                if task_span is not None:
                    task_span.annotate(result="aborted").finish("error")

    # -- ledger -------------------------------------------------------------

    def _record(self, outcome: TaskOutcome) -> dict:
        from repro.trace.record import bench_record

        payload = outcome.payload or {}
        return bench_record(
            outcome.artifact, kind="sweep",
            config=f"jobs={self.jobs}",
            cycles=payload.get("cycles", 0),
            energy_uj=payload.get("energy_uj", 0.0),
            wall_s=outcome.wall_s,
            data={
                "status": outcome.status,
                "attempts": outcome.attempts,
                "retries": outcome.retries,
                "reaped": outcome.reaped,
                "error": outcome.error,
                "cached": self.cache is not None,
                "compute_wall_s": payload.get("wall_s"),
            })


def run_sweep(specs, jobs: int = 1, cache=None, **kwargs) -> SweepResult:
    """Convenience wrapper: build an engine, run ``specs`` through it."""
    return SweepEngine(jobs=jobs, cache=cache, **kwargs).run(specs)
