"""Open-loop load driver for the signing service, timed from due times.

Built on :func:`repro.serve.loadgen.request_sequence` (the seeded
request mix and inter-arrival gaps) and ``SigningService.submit``.
Unlike ``loadgen.run_load``, which sleeps each gap relative to the
previous send and so drifts late under load, this driver schedules
every request on its absolute due time and times its latency from
that due time.  A stall of the front-end therefore counts against
every request it delays, and the driver reports how late it sent
(generator lag).  At the end of each phase it reconciles its books
against the service's own counters.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

#: Head start between building a phase and its first due time.
START_DELAY_S = 0.05
#: Served throughput skips this long after the first due time, while
#: an empty queue still absorbs the offered load.
STEADY_SKIP_S = 0.5


@dataclass(frozen=True)
class Phase:
    """One fixed-rate stretch of offered load."""

    name: str
    rate_rps: float
    requests: int
    seed: int
    limit_s: float = 0.1          # latency limit, counted from due time
    sheds_fail: bool = True       # a shed request counts as a failure


@dataclass
class PhaseResult:
    """What one phase offered and what came back."""

    phase: Phase
    offered: int = 0
    completed: int = 0
    shed: int = 0
    drained: int = 0
    failed: int = 0
    latency_s: list = field(default_factory=list)   # due -> response
    lag_s: list = field(default_factory=list)       # due -> submit
    queue_s: list = field(default_factory=list)
    service_s: list = field(default_factory=list)
    first_due: float = 0.0
    last_due: float = 0.0
    last_done: float = 0.0
    done_s: list = field(default_factory=list)     # completion times
    batches: int = 0
    lanes: int = 0
    post_warm_compiles: int = 0
    problems: list = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.last_done - self.first_due

    @property
    def within_limit(self) -> int:
        return sum(1 for lat in self.latency_s if lat <= self.phase.limit_s)

    @property
    def served_rps(self) -> float:
        """Responses per second while load was offered, after the
        first ``STEADY_SKIP_S`` (the whole phase if it is shorter)."""
        lo = self.first_due + STEADY_SKIP_S
        if self.last_due <= lo:
            return self.completed / self.wall_s if self.wall_s > 0 else 0.0
        done = sum(1 for t in self.done_s if lo <= t <= self.last_due)
        return done / (self.last_due - lo)

    @property
    def failures(self) -> int:
        """Requests that count as failed: failed and drained ones, and
        sheds where the phase's rate is one the service must carry."""
        return (self.failed + self.drained
                + (self.shed if self.phase.sheds_fail else 0))


def _delta(now: dict, base: dict, key: str) -> int:
    return now.get(key, 0) - base.get(key, 0)


def reconcile(result: PhaseResult, base: dict, now: dict) -> list[str]:
    """Mismatches between the driver's books and the service counters."""
    problems = []
    for ours, key in ((result.completed, "requests_served"),
                      (result.shed, "requests_shed")):
        if ours != _delta(now, base, key):
            problems.append(f"{result.phase.name}: driver counted {ours} "
                            f"but service {key} moved "
                            f"{_delta(now, base, key)}")
    admitted = _delta(now, base, "admitted")
    if result.offered != admitted + result.shed + result.drained:
        problems.append(f"{result.phase.name}: offered {result.offered} != "
                        f"admitted {admitted} + shed {result.shed} + "
                        f"drained {result.drained}")
    if result.completed + result.failed != admitted:
        problems.append(f"{result.phase.name}: completed {result.completed}"
                        f" + failed {result.failed} != admitted {admitted}")
    return problems


async def run_phase(service, phase: Phase, requests=None,
                    clock=time.perf_counter) -> PhaseResult:
    """Offer one phase to a started service and wait for every reply.

    ``requests`` overrides the ``(request, gap_s)`` stream (tests);
    by default it is ``loadgen.request_sequence`` for the phase.
    """
    from repro.serve.types import RequestShed, ServeError, ServiceDraining

    if requests is None:
        from repro.serve.loadgen import LoadConfig, request_sequence

        requests = request_sequence(LoadConfig(
            requests=phase.requests, rate_rps=phase.rate_rps,
            seed=phase.seed))
    result = PhaseResult(phase)
    base = service.counters()

    async def one(request, due: float):
        result.lag_s.append(clock() - due)
        try:
            response = await service.submit(request)
        except RequestShed:
            return "shed", due, clock(), None
        except ServiceDraining:
            return "drained", due, clock(), None
        except ServeError:
            return "lost", due, clock(), None
        return ("completed" if response.ok else "failed",
                due, clock(), response)

    due = clock() + START_DELAY_S
    result.first_due = due
    pending = []
    for request, gap in requests:
        delay = due - clock()
        await asyncio.sleep(max(0.0, delay))
        pending.append(asyncio.ensure_future(one(request, due)))
        result.offered += 1
        result.last_due = due
        due += gap
    outcomes = await asyncio.gather(*pending)

    for status, due, done, response in outcomes:
        result.last_done = max(result.last_done, done)
        if status == "completed":
            result.completed += 1
            result.done_s.append(done)
            result.latency_s.append(done - due)
            result.queue_s.append(response.queue_s)
            result.service_s.append(response.service_s)
        elif status == "shed":
            result.shed += 1
        elif status == "drained":
            result.drained += 1
        else:
            result.failed += 1
    now = service.counters()
    result.batches = _delta(now, base, "batches_formed")
    result.lanes = _delta(now, base, "lanes_dispatched")
    result.post_warm_compiles = _delta(now, base, "post_warm_compiles")
    result.problems = reconcile(result, base, now)
    if result.post_warm_compiles:
        result.problems.append(
            f"{phase.name}: {result.post_warm_compiles} block compile(s) "
            f"after warm-up")
    return result


def phases_for(seed: int, seconds: float) -> list[Phase]:
    """The serve-mixed schedule: light, heavy, overload, three times.

    Each phase runs as three segments spread over the run, so a burst
    of noise on the machine spoils one segment, not the phase.  A light
    segment lasts 5/36 of ``seconds`` (1000 light requests in all at
    24 s, so the light p99 leaves 10 samples beyond it), a heavy or
    overload segment 1/12.  Overload sheds are the expected
    backpressure, so only there they do not count as failures.
    """
    plan = (("light", 100.0, 5 / 36, True), ("heavy", 300.0, 1 / 12, True),
            ("overload", 1000.0, 1 / 12, False))
    phases = []
    for _ in range(3):
        for name, rate, share, sheds_fail in plan:
            phases.append(Phase(
                name, rate, max(1, round(rate * share * seconds)),
                seed=seed * 100 + len(phases), sheds_fail=sheds_fail))
    return phases
