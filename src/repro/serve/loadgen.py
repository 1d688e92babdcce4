"""Open-loop load generator for the signing service.

Drives a :class:`~repro.serve.service.SigningService` with mixed-curve
traffic at a configured arrival rate.  Arrivals are **open loop**: the
generator fires requests on a Poisson (or uniform) arrival clock and
never waits for a response before the next arrival, so service-side
queueing delay cannot throttle offered load -- exactly the regime
where backpressure and load shedding matter.

The traffic mix is a weighted list of (op, curve) pairs, drawn with a
seeded RNG so a given (seed, request-count, mix) always offers the
same sequence.  Every outcome is accounted (completed / shed /
drained / failed), and :meth:`LoadReport.reconcile` cross-checks the
generator's books against the service's own counters -- the CI smoke
fails if the two ever disagree.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field

from repro.serve.service import SigningService
from repro.serve.types import (
    RequestShed,
    ServeError,
    ServeRequest,
    ServeResponse,
    ServiceDraining,
)
from repro.trace.metrics import Histogram

#: Default traffic mix: (op, curve, weight).
DEFAULT_MIX: tuple[tuple[str, str, float], ...] = (
    ("sign", "P-192", 4.0),
    ("verify", "P-192", 2.0),
    ("sign", "B-163", 2.0),
    ("verify", "B-163", 1.0),
    ("ecdh", "P-192", 0.5),
    ("ecdh", "B-163", 0.5),
)


@dataclass
class LoadConfig:
    """One load-generation run."""

    requests: int = 200
    rate_rps: float = 500.0       # offered arrival rate
    poisson: bool = True          # exponential vs uniform inter-arrival
    seed: int = 1234
    config: str = "baseline"      # pricing config stamped on requests
    mix: tuple = DEFAULT_MIX


@dataclass
class LoadReport:
    """Accounting of one open-loop run against a service."""

    offered: int = 0
    completed: int = 0
    shed: int = 0
    drained: int = 0
    failed: int = 0
    wall_s: float = 0.0
    energy_nj: float = 0.0
    latency: Histogram = field(default_factory=Histogram)
    per_op: dict = field(default_factory=dict)
    baseline: dict = field(default_factory=dict)  # service counters at t0

    @property
    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.wall_s if self.wall_s else 0.0

    @property
    def energy_per_request_nj(self) -> float:
        return (self.energy_nj / self.completed
                if self.completed else 0.0)

    def reconcile(self, counters: dict) -> list[str]:
        """Mismatches between this report and the service's own
        counters (empty == books balance).

        Compared as deltas against :attr:`baseline`, so traffic the
        service handled before this run does not skew the books.
        """
        def delta(key: str) -> int:
            return counters.get(key, 0) - self.baseline.get(key, 0)

        problems = []
        if self.completed != delta("requests_served"):
            problems.append(
                f"completed {self.completed} != service "
                f"requests_served {delta('requests_served')}")
        if self.shed != delta("requests_shed"):
            problems.append(
                f"shed {self.shed} != service requests_shed "
                f"{delta('requests_shed')}")
        if self.failed != delta("requests_failed"):
            problems.append(
                f"failed {self.failed} != service requests_failed "
                f"{delta('requests_failed')}")
        if self.offered != delta("admitted") + self.shed + self.drained:
            problems.append(
                f"offered {self.offered} != admitted "
                f"{delta('admitted')} + shed {self.shed} "
                f"+ drained {self.drained}")
        if self.completed + self.failed != delta("admitted"):
            problems.append(
                f"completed {self.completed} + failed {self.failed} "
                f"!= admitted {delta('admitted')}")
        return problems

    def to_dict(self) -> dict:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "drained": self.drained,
            "failed": self.failed,
            "shed_rate": round(self.shed_rate, 4),
            "wall_s": round(self.wall_s, 6),
            "throughput_rps": round(self.throughput_rps, 2),
            "energy_per_request_nj": round(
                self.energy_per_request_nj, 3),
            "latency_s": self.latency.summary(),
            "per_op": self.per_op,
        }


def request_sequence(cfg: LoadConfig):
    """The deterministic (request, inter_arrival_s) stream for
    ``cfg`` -- same seed, same offered traffic."""
    rng = random.Random(cfg.seed)
    pairs = [(op, curve) for op, curve, _ in cfg.mix]
    weights = [w for _, _, w in cfg.mix]
    gap = 1.0 / cfg.rate_rps if cfg.rate_rps > 0 else 0.0
    for _ in range(cfg.requests):
        op, curve = rng.choices(pairs, weights=weights)[0]
        wait = (rng.expovariate(cfg.rate_rps)
                if cfg.poisson and cfg.rate_rps > 0 else gap)
        yield ServeRequest(op=op, curve=curve, config=cfg.config), wait


async def run_load(service: SigningService,
                   cfg: LoadConfig | None = None) -> LoadReport:
    """Offer ``cfg`` traffic to a *started* service; returns the
    report once every in-flight request resolved."""
    import time

    cfg = cfg or LoadConfig()
    report = LoadReport(baseline=service.counters())
    pending: list[asyncio.Task] = []

    async def _one(request: ServeRequest) -> tuple[str, object]:
        try:
            response = await service.submit(request)
        except RequestShed:
            return ("shed", request)
        except ServiceDraining:
            return ("drained", request)
        except ServeError:
            # admitted, then abandoned (e.g. flushed when the last
            # worker died): a failure, like a failed response
            return ("failed", request)
        return ("completed" if response.ok else "failed", response)

    t0 = time.perf_counter()
    for request, wait in request_sequence(cfg):
        report.offered += 1
        pending.append(asyncio.ensure_future(_one(request)))
        if wait > 0:
            await asyncio.sleep(wait)
    outcomes = await asyncio.gather(*pending)
    report.wall_s = time.perf_counter() - t0
    for outcome, payload in outcomes:
        key = (payload.request.op if isinstance(payload, ServeResponse)
               else payload.op)
        ledger = report.per_op.setdefault(
            key, {"completed": 0, "shed": 0, "drained": 0, "failed": 0})
        if outcome == "completed":
            report.completed += 1
            ledger["completed"] += 1
            report.energy_nj += payload.energy_nj
            report.latency.observe(payload.latency_s)
        elif outcome == "shed":
            report.shed += 1
            ledger["shed"] += 1
        elif outcome == "drained":
            report.drained += 1
            ledger["drained"] += 1
        else:
            report.failed += 1
            ledger["failed"] += 1
    return report
