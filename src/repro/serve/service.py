"""The always-on signing service: asyncio front-end over warm workers.

:class:`SigningService` accepts sign/verify/ecdh requests across
curves and pricing configs (:meth:`SigningService.submit`), coalesces
them in a bounded :class:`~repro.serve.queue.AdmissionQueue`, and
dispatches homogeneous micro-batches -- one per (kernel plan, config)
group -- to persistent worker processes (:mod:`repro.serve.worker`)
that execute them lock-step on the lane engine.  One dispatcher task
per worker keeps every worker busy on at most one batch while the
event loop keeps admitting, shedding and answering.

Life cycle::

    service = SigningService(ServeConfig(workers=2))
    await service.start()          # spawn + warm workers
    resp = await service.submit(ServeRequest("sign", "P-192"))
    await service.stop()           # drain in-flight, stop workers

Graceful shutdown: :meth:`drain` closes admission (new submits raise
:class:`~repro.serve.types.ServiceDraining`), lets queued and
in-flight batches finish, then stops every worker over its pipe and
joins the process -- escalating to ``terminate()`` only if a worker
ignores the stop.  :meth:`install_signal_handlers` wires SIGTERM and
SIGINT to exactly that path.

Accounting: :meth:`SigningService.counters` is the one account of
what the service did (requests served, failed and shed, batches,
lanes, post-warm compiles); every admitted request ends up served or
failed, so ``admitted == served + failed + queued``.  A
``kind="serve"`` ledger record is appended on :meth:`stop` so the
regress ledger can trend service efficiency (requests served, batches
formed, mean batch occupancy, latency quantiles) across PRs.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass

from repro import obs
from repro.serve.queue import AdmissionQueue, QueueEntry
from repro.serve.types import (
    ServeRequest,
    ServeResponse,
    ServiceDraining,
    WorkerFailure,
    plan_for,
)

@dataclass
class ServeConfig:
    """Knobs of one service instance."""

    workers: int = 2
    max_depth: int = 256          # admission queue bound (backpressure)
    max_batch: int = 32           # lanes per dispatched micro-batch
    batch_window_s: float = 0.002  # linger for burst coalescing
    batch_timeout_s: float = 120.0  # per-batch worker deadline
    stock_target: int = 32        # LanePool restock level per plan
    calibration: object | None = None
    cache_dir: object | None = None   # shared warm cache (ResultCache)
    mp_context: str | None = None
    warm_plans: tuple = ()        # plans warmed at start (() = all)


class WorkerHandle:
    """One worker process + its pipe, driven from the event loop.

    Pipe receives block a thread-pool thread (``run_in_executor``), so
    the event loop never blocks on a busy worker.
    """

    def __init__(self, index: int, cfg: ServeConfig,
                 obs_ctx: dict | None = None) -> None:
        import multiprocessing

        from repro.serve.worker import worker_main
        from repro.sweep.cache import default_cache_dir

        ctx = multiprocessing.get_context(cfg.mp_context)
        self.index = index
        self.conn, child = ctx.Pipe(duplex=True)
        cache_dir = (str(cfg.cache_dir) if cfg.cache_dir
                     else default_cache_dir())
        self.proc = ctx.Process(
            target=worker_main,
            args=(child, index, cfg.calibration,
                  cfg.stock_target, cache_dir, obs_ctx),
            daemon=True)
        self.proc.start()
        child.close()
        self.info: dict = {}

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()

    async def call(self, message, timeout_s: float | None = None):
        """Send one message, await its reply off the event loop."""
        loop = asyncio.get_running_loop()
        self.conn.send(message)
        recv = loop.run_in_executor(None, self.conn.recv)
        if timeout_s is None:
            return await recv
        return await asyncio.wait_for(recv, timeout_s)

    async def stop(self, timeout_s: float = 10.0) -> dict | None:
        """Graceful worker stop; returns the worker's final report."""
        report = None
        try:
            reply = await self.call(("stop",), timeout_s)
            if reply and reply[0] == "bye":
                report = reply[1]
        except (OSError, EOFError, asyncio.TimeoutError):
            pass
        self.close(force=self.proc.is_alive())
        return report

    def close(self, force: bool = False) -> None:
        """Tear the worker down; never leaves an orphaned process."""
        try:
            self.conn.close()
        except OSError:
            pass
        if force:
            self.proc.terminate()
        self.proc.join(timeout=10.0)
        if self.proc.is_alive():  # pragma: no cover - stuck worker
            self.proc.kill()
            self.proc.join()


class SigningService:
    """Long-lived sign/verify/ecdh service over warm lane batches."""

    def __init__(self, config: ServeConfig | None = None,
                 ledger=None, worker_factory=None) -> None:
        self.cfg = config or ServeConfig()
        if self.cfg.workers < 1:
            raise ValueError("ServeConfig.workers must be >= 1")
        self.queue = AdmissionQueue(self.cfg.max_depth)
        self._worker_factory = worker_factory or WorkerHandle
        self.workers: list = []
        self._dispatchers: list[asyncio.Task] = []
        self._live_dispatchers = 0
        self._seq = 0
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self.started = False
        self.stopped = False
        self._t_start = 0.0
        self.profiles: dict[str, dict] = {}
        # service-side accounting (always on; obs mirrors when enabled)
        from repro.trace.metrics import Histogram

        self.latency = Histogram()
        self.requests_ok = 0
        self.requests_failed = 0
        self.batches = 0
        self.lanes = 0
        self.post_warm_compiles = 0
        self.worker_deaths = 0
        if ledger is None:
            from repro.regress.ledger import default_ledger

            ledger = default_ledger()
        self.ledger = ledger

    # -- life cycle ------------------------------------------------------

    async def start(self) -> "SigningService":
        """Spawn + warm the workers, then start the dispatchers."""
        if self.started:
            return self
        self._t_start = time.perf_counter()
        from repro.serve.types import PLANS

        plans = self.cfg.warm_plans or tuple(
            sorted({(p.kernel, p.k) for p in PLANS.values()}))
        obs_ctx = obs.propagation_context()
        with obs.span("serve.start", workers=str(self.cfg.workers)):
            self.workers = [self._worker_factory(i, self.cfg, obs_ctx)
                            for i in range(self.cfg.workers)]
            readies = await asyncio.gather(
                *(w.call(("init", plans),
                         timeout_s=self.cfg.batch_timeout_s)
                  for w in self.workers))
        for worker, reply in zip(self.workers, readies):
            if not reply or reply[0] != "ready":
                detail = reply[1] if reply else "no reply"
                await self._teardown_workers()
                raise WorkerFailure(
                    f"worker {worker.index} failed to start: {detail}")
            self.profiles.update(reply[1].get("profiles", {}))
        self._live_dispatchers = len(self.workers)
        self._dispatchers = [
            asyncio.create_task(self._dispatch_loop(w),
                                name=f"serve-dispatch-{w.index}")
            for w in self.workers]
        self.started = True
        return self

    async def drain(self) -> None:
        """Close admission, finish queued + in-flight work."""
        self.queue.close()
        if self._dispatchers:
            await asyncio.gather(*self._dispatchers,
                                 return_exceptions=True)
            self._dispatchers = []
        await self._idle.wait()

    async def stop(self) -> dict:
        """Drain, stop every worker, append the ``serve`` ledger
        record; returns the service counters."""
        if self.stopped:
            return self.counters()
        await self.drain()
        await self._teardown_workers()
        self.stopped = True
        counters = self.counters()
        self.ledger.append(self.serve_record())
        return counters

    async def _teardown_workers(self) -> None:
        tel = obs.get()
        for worker in self.workers:
            report = await worker.stop()
            if tel is not None and report and report.get("telemetry"):
                tel.merge(report["telemetry"])

    def install_signal_handlers(self,
                                loop: asyncio.AbstractEventLoop | None
                                = None) -> None:
        """SIGTERM/SIGINT -> graceful drain + stop (idempotent)."""
        loop = loop or asyncio.get_running_loop()

        def _initiate(signame: str) -> None:
            if not self.stopped:
                asyncio.ensure_future(self.stop())

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, _initiate, sig.name)
            except (NotImplementedError, RuntimeError):
                # non-unix event loops: shutdown stays explicit
                break

    # -- request path ----------------------------------------------------

    async def submit(self, request: ServeRequest) -> ServeResponse:
        """Admit one request and await its response.

        Raises the typed admission errors
        (:class:`~repro.serve.types.UnknownOperation`,
        :class:`~repro.serve.types.UnsupportedConfig`,
        :class:`~repro.serve.types.RequestShed`,
        :class:`~repro.serve.types.ServiceDraining`); execution
        failures come back as a ``status="failed"`` response instead,
        so one bad batch cannot masquerade as backpressure.
        """
        if not self.started or self.stopped:
            raise ServiceDraining("service is not running")
        request.validate()
        t0 = time.perf_counter()
        future: asyncio.Future = asyncio.get_running_loop(
        ).create_future()
        entry = QueueEntry(request=request, plan=plan_for(
            request.op, request.curve), future=future)
        self.queue.admit(entry)
        response: ServeResponse = await future
        response.latency_s = time.perf_counter() - t0
        self.latency.observe(response.latency_s)
        tel = obs.get()
        if tel is not None:
            tel.histogram("serve_request_latency_s").observe(
                response.latency_s)
            tel.counter("serve_requests_total", op=request.op,
                        curve=request.curve,
                        status=response.status).inc()
        return response

    # -- dispatch --------------------------------------------------------

    async def _dispatch_loop(self, worker) -> None:
        try:
            while True:
                batch = await self.queue.next_batch(
                    self.cfg.max_batch, self.cfg.batch_window_s)
                if batch is None:
                    return
                self._inflight += len(batch)
                self._idle.clear()
                try:
                    await self._run_batch(worker, batch)
                finally:
                    self._inflight -= len(batch)
                    if self._inflight == 0:
                        self._idle.set()
                if not worker.alive:
                    self.worker_deaths += 1
                    return
        finally:
            self._live_dispatchers -= 1
            if self._live_dispatchers == 0:
                # no one is left to serve what is queued or arrives
                # later: refuse new requests, fail the queued ones
                self.queue.close()
                self.requests_failed += self.queue.flush(WorkerFailure(
                    "all workers lost; queued requests abandoned"))

    async def _run_batch(self, worker, batch: list[QueueEntry]) -> None:
        plan = batch[0].plan
        config = batch[0].request.config
        n = len(batch)
        self._seq += 1
        seq = self._seq
        with obs.span("serve.batch", worker=str(worker.index),
                      kernel=plan.label, lanes=str(n)) as span:
            try:
                reply = await worker.call(
                    ("batch", seq, plan.kernel, plan.k, n, config),
                    timeout_s=self.cfg.batch_timeout_s)
            except (OSError, EOFError, asyncio.TimeoutError) as exc:
                span.annotate(result="worker-lost")
                worker.close(force=True)
                self._fail_batch(batch, WorkerFailure(
                    f"worker {worker.index} lost mid-batch: "
                    f"{type(exc).__name__}"))
                return
        if reply[0] != "ok" or reply[1] != seq:
            error = reply[2] if len(reply) > 2 else f"bad reply {reply[0]!r}"
            self._fail_batch(batch, WorkerFailure(str(error)))
            return
        self._settle_batch(worker, batch, reply[2], plan, config)

    def _settle_batch(self, worker, batch, result, plan, config) -> None:
        self.batches += 1
        self.lanes += len(batch)
        if result.get("warm") and result.get("compiled", 0) > 0:
            self.post_warm_compiles += result["compiled"]
        tel = obs.get()
        if tel is not None:
            tel.histogram("serve_batch_occupancy").observe(len(batch))
            tel.counter("serve_batches_total").inc()
            if result.get("warm") and result.get("compiled", 0) > 0:
                tel.counter("serve_post_warm_compiles_total").inc(
                    result["compiled"])
        lanes = result["lanes"]
        for i, entry in enumerate(batch):
            lane = lanes[i]
            response = ServeResponse(
                request=entry.request, status="ok",
                kernel=plan.kernel, k=plan.k,
                cycles=lane["cycles"],
                instructions=lane["instructions"],
                energy_nj=lane["energy_nj"],
                queue_s=entry.queue_s - result["wall_s"],
                service_s=result["wall_s"],
                batch_size=len(batch), worker=worker.index)
            self.requests_ok += 1
            if not entry.future.done():
                entry.future.set_result(response)

    def _fail_batch(self, batch, exc: WorkerFailure) -> None:
        for entry in batch:
            self.requests_failed += 1
            response = ServeResponse(
                request=entry.request, status="failed",
                batch_size=len(batch), error=str(exc))
            if not entry.future.done():
                entry.future.set_result(response)

    # -- reporting -------------------------------------------------------

    @property
    def mean_batch_occupancy(self) -> float:
        return self.lanes / self.batches if self.batches else 0.0

    def counters(self) -> dict:
        """Service-side accounting (loadgen reconciles against this)."""
        return {
            "requests_served": self.requests_ok,
            "requests_failed": self.requests_failed,
            "requests_shed": self.queue.shed,
            "admitted": self.queue.admitted,
            "batches_formed": self.batches,
            "lanes_dispatched": self.lanes,
            "mean_batch_occupancy": round(self.mean_batch_occupancy, 3),
            "post_warm_compiles": self.post_warm_compiles,
            "worker_deaths": self.worker_deaths,
            "workers": len(self.workers),
            "queue_depth": self.queue.depth,
            "latency": self.latency.summary(),
        }

    def serve_record(self) -> dict:
        """The ``kind="serve"`` ledger record for this service run."""
        from repro.trace.record import bench_record

        return bench_record(
            "serve", kind="serve",
            config=(f"workers={self.cfg.workers} "
                    f"max_batch={self.cfg.max_batch} "
                    f"max_depth={self.cfg.max_depth}"),
            wall_s=(time.perf_counter() - self._t_start
                    if self._t_start else 0.0),
            data=self.counters())


async def serve(config: ServeConfig | None = None) -> SigningService:
    """Construct and start a service (``await serve(...)``)."""
    return await SigningService(config).start()


def worker_pids(service: SigningService) -> list[int]:
    """Live worker pids (empty once the service stopped cleanly)."""
    return [w.pid for w in service.workers
            if getattr(w, "proc", None) is not None and w.alive]

