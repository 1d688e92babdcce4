"""Service-plane behavior with in-process fake workers.

The fakes implement the :class:`WorkerHandle` duck type (``call`` /
``alive`` / ``stop`` / ``close``) so these tests exercise the full
admission -> dispatch -> settle path -- typed shedding, graceful
mid-flight shutdown, worker-loss flushing, load-generator
reconciliation -- without paying multiprocessing spawn time.
"""

import asyncio

import pytest

from repro.serve.loadgen import LoadConfig, run_load
from repro.serve.service import ServeConfig, SigningService
from repro.serve.types import (
    RequestShed,
    ServeRequest,
    ServiceDraining,
    UnknownOperation,
    UnsupportedConfig,
    WorkerFailure,
)


class FakeWorker:
    """In-process stand-in for one warm worker process."""

    def __init__(self, index, cfg, obs_ctx=None,
                 delay_s=0.0, die_on_batch=False):
        self.index = index
        self.cfg = cfg
        self.delay_s = delay_s
        self.die_on_batch = die_on_batch
        self._alive = True

    @property
    def pid(self):
        return 10_000 + self.index

    @property
    def alive(self):
        return self._alive

    async def call(self, message, timeout_s=None):
        kind = message[0]
        if kind == "init":
            return ("ready", {"pid": self.pid, "profiles": {}})
        if kind == "batch":
            if self.die_on_batch:
                self._alive = False
                raise EOFError("worker gone")
            _, seq, kernel, k, n, config = message
            if self.delay_s:
                await asyncio.sleep(self.delay_s)
            lanes = [{"cycles": 100 + i, "instructions": 80,
                      "energy_nj": 1.5} for i in range(n)]
            return ("ok", seq, {
                "lanes": lanes, "wall_s": self.delay_s,
                "compiled": 0, "warm": True})
        if kind == "stop":
            self._alive = False
            return ("bye", {"telemetry": None})
        raise AssertionError(f"unexpected message {kind!r}")

    async def stop(self, timeout_s=10.0):
        self._alive = False
        return {"telemetry": None}

    def close(self, force=False):
        self._alive = False


class ListLedger:
    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)


def _service(ledger=None, delay_s=0.0, die_on_batch=False, **knobs):
    knobs.setdefault("workers", 1)
    knobs.setdefault("batch_window_s", 0.0)

    def factory(index, cfg, obs_ctx=None):
        return FakeWorker(index, cfg, obs_ctx,
                          delay_s=delay_s, die_on_batch=die_on_batch)

    return SigningService(ServeConfig(**knobs),
                          ledger=ledger or ListLedger(),
                          worker_factory=factory)


def test_submit_round_trip_and_ledger_record():
    async def scenario():
        ledger = ListLedger()
        service = _service(ledger=ledger)
        await service.start()
        response = await service.submit(ServeRequest("sign", "P-192"))
        assert response.ok
        assert response.kernel == "fmul_p192"
        assert response.cycles == 100
        assert response.batch_size == 1
        assert response.worker == 0
        assert response.latency_s > 0
        counters = await service.stop()
        assert counters["requests_served"] == 1
        assert counters["batches_formed"] == 1
        assert counters["latency"]["count"] == 1
        # stop() appended the kind="serve" regress record
        [record] = ledger.records
        assert record["kind"] == "serve"
        assert record["data"]["requests_served"] == 1
        # a stopped service refuses new admissions, typed
        with pytest.raises(ServiceDraining):
            await service.submit(ServeRequest("sign"))

    asyncio.run(scenario())


def test_malformed_requests_raise_typed_errors():
    async def scenario():
        service = _service()
        await service.start()
        try:
            with pytest.raises(UnknownOperation):
                await service.submit(ServeRequest("frobnicate"))
            with pytest.raises(UnsupportedConfig):
                await service.submit(
                    ServeRequest("sign", config="monte"))
        finally:
            await service.stop()

    asyncio.run(scenario())


def test_backpressure_sheds_typed_not_timeout():
    async def scenario():
        service = _service(delay_s=0.05, max_depth=2)
        await service.start()
        tasks = [asyncio.ensure_future(
            service.submit(ServeRequest("sign", "P-192")))
            for _ in range(6)]
        # one tick: every submit reaches admission before any
        # dispatcher wakes, so exactly max_depth are admitted
        await asyncio.sleep(0)
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        shed = [o for o in outcomes if isinstance(o, RequestShed)]
        served = [o for o in outcomes
                  if not isinstance(o, BaseException)]
        assert len(shed) == 4 and len(served) == 2
        assert all(r.ok for r in served)
        counters = await service.stop()
        assert counters["requests_shed"] == 4
        assert counters["requests_served"] == 2

    asyncio.run(scenario())


def test_graceful_shutdown_drains_in_flight():
    """The mid-flight regression: requests admitted before shutdown
    complete normally; requests after it are refused, typed."""

    async def scenario():
        service = _service(delay_s=0.05, max_batch=2)
        await service.start()
        tasks = [asyncio.ensure_future(
            service.submit(ServeRequest("sign", "P-192")))
            for _ in range(5)]
        await asyncio.sleep(0)          # all five admitted
        stop_task = asyncio.ensure_future(service.stop())
        await asyncio.sleep(0)          # stop() closed admission
        with pytest.raises(ServiceDraining):
            await service.submit(ServeRequest("sign", "P-192"))
        responses = await asyncio.gather(*tasks)
        assert all(r.ok for r in responses)
        counters = await stop_task
        assert counters["requests_served"] == 5
        assert counters["requests_failed"] == 0
        assert counters["queue_depth"] == 0
        assert service.stopped
        assert all(not w.alive for w in service.workers)

    asyncio.run(scenario())


def test_worker_loss_fails_batch_and_flushes_queue():
    async def scenario():
        service = _service(die_on_batch=True, max_batch=1)
        await service.start()
        tasks = [asyncio.ensure_future(
            service.submit(ServeRequest("sign", "P-192")))
            for _ in range(3)]
        await asyncio.sleep(0)
        outcomes = await asyncio.gather(*tasks, return_exceptions=True)
        # the dispatched request fails as a response, naming the cause
        failed = [o for o in outcomes
                  if not isinstance(o, BaseException)]
        assert len(failed) == 1 and not failed[0].ok
        assert "lost" in failed[0].error
        # the still-queued requests are flushed with the typed error
        flushed = [o for o in outcomes
                   if isinstance(o, WorkerFailure)]
        assert len(flushed) == 2
        counters = await service.stop()
        # every admitted request that got no ok response failed
        assert counters["requests_failed"] == 3
        assert counters["admitted"] == 3
        assert counters["worker_deaths"] == 1
        assert counters["queue_depth"] == 0

    asyncio.run(scenario())


def test_last_worker_loss_closes_admission():
    """The last worker dying with an empty queue must still close
    admission: a later request is refused, typed, not left hanging."""

    async def scenario():
        service = _service(die_on_batch=True)
        await service.start()
        response = await service.submit(ServeRequest("sign", "P-192"))
        assert not response.ok
        await asyncio.sleep(0)          # the dispatcher exits
        with pytest.raises(ServiceDraining):
            await asyncio.wait_for(
                service.submit(ServeRequest("sign", "P-192")), 1.0)
        counters = await service.stop()
        assert counters["admitted"] == 1
        assert counters["requests_failed"] == 1

    asyncio.run(scenario())


def test_loadgen_counts_flushed_requests_as_failed():
    """Requests flushed after the last worker died are failures in the
    generator's books and in the service's, and the books balance."""

    async def scenario():
        service = _service(die_on_batch=True, max_batch=1)
        await service.start()
        report = await run_load(service, LoadConfig(
            requests=5, rate_rps=0.0, seed=3))
        assert report.offered == 5
        assert report.completed == 0 and report.failed == 5
        counters = service.counters()
        assert counters["admitted"] == 5
        assert counters["requests_served"] == 0
        assert counters["requests_failed"] == 5
        assert report.reconcile(counters) == []
        await service.stop()

    asyncio.run(scenario())


def test_loadgen_books_reconcile_with_service_counters():
    async def scenario():
        service = _service(workers=2)
        await service.start()
        # pre-run traffic, so reconcile must use deltas not absolutes
        await service.submit(ServeRequest("sign", "P-192"))
        report = await run_load(service, LoadConfig(
            requests=40, rate_rps=5000.0, seed=7))
        assert report.offered == 40
        assert report.completed == 40
        assert report.shed == report.drained == report.failed == 0
        assert report.latency.count == 40
        assert report.reconcile(service.counters()) == []
        await service.stop()

    asyncio.run(scenario())


def test_deterministic_request_sequence():
    from repro.serve.loadgen import request_sequence

    cfg = LoadConfig(requests=25, seed=99)
    first = [(r.op, r.curve) for r, _ in request_sequence(cfg)]
    second = [(r.op, r.curve) for r, _ in request_sequence(cfg)]
    assert first == second
    assert len(first) == 25
