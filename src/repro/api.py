"""Public facade: the one import surface for driving the reproduction.

Batch-first entry points (documented in ``docs/API.md``):

* :func:`compute_batch` -- submit a fleet (:class:`BatchRequest` of
  artifact and/or kernel :class:`BatchItem` s) and get a
  :class:`BatchResult` with per-lane payloads and aggregate stats.
  Artifact items run through the parallel sweep engine; kernel items
  fan across the numpy lane engine (:mod:`repro.pete.lanes`).
* :func:`compute_artifact` -- one table/figure payload.  A batch-of-one
  wrapper over :func:`compute_batch`; byte-identical to the historical
  scalar behavior (exceptions propagate, nothing is cached by default).
* :func:`sweep` -- the artifact cross-product through the sweep engine
  with the content-addressed result cache; a batch wrapper returning
  the embedded :class:`~repro.sweep.engine.SweepResult`.
* :func:`open_session` -- a context in which every producer, kernel
  runner and batch prices against a caller-supplied
  :class:`~repro.energy.calibration.Calibration` instead of the
  default.
* :func:`serve_session` -- the always-on service plane: an async
  context that boots a :class:`~repro.serve.service.SigningService`
  (warm worker processes behind an admission queue), yields it for
  :meth:`~repro.serve.service.SigningService.submit` calls, and
  drains + stops it on exit.  The request/response vocabulary
  (:class:`ServeRequest`, :class:`ServeResponse`) and the typed
  rejections (:class:`ServiceDraining`, :class:`RequestShed`) are
  re-exported here.

The scalar and batch surfaces share one keyword vocabulary --- ``jobs``
(process fan-out for artifact items), ``cache``/``cache_dir`` (the
on-disk result store), ``calibration``, ``lanes`` (lane-engine batch
width for kernel items) --- and one name-resolution path
(:func:`_resolve`).

Everything here delegates to :mod:`repro.harness.registry`,
:mod:`repro.sweep` and :mod:`repro.kernels.runner`; nothing below this
module needs to be imported for ordinary use.  The exported surface is
exactly ``__all__``; ``tests/test_api_surface.py`` pins it.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field, replace

from repro import obs
from repro.harness.registry import (
    ArtifactSpec,
    UnknownArtifactError,
    get_spec,
    select,
)
from repro.serve.service import ServeConfig, SigningService
from repro.serve.types import (
    RequestShed,
    ServeRequest,
    ServeResponse,
    ServiceDraining,
)
from repro.sweep.cache import ResultCache
from repro.sweep.engine import SweepEngine, SweepResult

__all__ = [
    "ArtifactSpec",
    "BatchItem",
    "BatchLane",
    "BatchRequest",
    "BatchResult",
    "RequestShed",
    "ServeConfig",
    "ServeRequest",
    "ServeResponse",
    "ServiceDraining",
    "Session",
    "SigningService",
    "SweepResult",
    "UnknownArtifactError",
    "compute_artifact",
    "compute_batch",
    "open_session",
    "serve_session",
    "sweep",
]


def _resolve(name: str, kind: str | None) -> ArtifactSpec:
    if kind is not None:
        return get_spec(kind, name)
    specs = select([name])
    if len(specs) > 1:
        choices = ", ".join(s.artifact_id for s in specs)
        raise UnknownArtifactError(
            f"artifact name {name!r} is ambiguous ({choices}); "
            f"pass kind= or a table_/figure_ prefix")
    return specs[0]


# ---------------------------------------------------------------------------
# Batch request / result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchItem:
    """One unit of work in a batch.

    ``kind=None`` resolves ``name`` like ``runall --only`` does (table
    or figure); ``kind="table"``/``"figure"`` pins the namespace; and
    ``kind="kernel"`` with ``k`` set names a generated kernel instance
    (e.g. ``BatchItem("os_mul", "kernel", 8)``) that executes on the
    lane engine.
    """

    name: str
    kind: str | None = None
    k: int | None = None

    @property
    def is_kernel(self) -> bool:
        return self.kind == "kernel"

    @property
    def label(self) -> str:
        if self.is_kernel:
            return f"kernel:{self.name}:{self.k}"
        return f"{self.kind or '?'}:{self.name}"


@dataclass(frozen=True)
class BatchRequest:
    """A typed fleet submission for :func:`compute_batch`.

    ``jobs``/``cache``/``cache_dir``/``calibration`` carry the same
    semantics as :func:`sweep`; ``lanes`` widens a *single* kernel
    item into that many lock-step lane instances (several identical
    kernel items are equivalent).  ``strict=True`` computes artifact
    items inline -- no cache, no pool, exceptions propagate -- which is
    how :func:`compute_artifact` keeps its historical scalar behavior.
    """

    items: tuple[BatchItem, ...]
    jobs: int = 1
    cache: bool = False
    cache_dir: object | None = None
    calibration: object | None = None
    lanes: int | None = None
    strict: bool = False

    @classmethod
    def artifacts(cls, *names: str, **kwargs) -> "BatchRequest":
        """A request over artifact name tokens."""
        return cls(items=tuple(BatchItem(n) for n in names), **kwargs)

    @classmethod
    def kernels(cls, name: str, k: int, lanes: int,
                **kwargs) -> "BatchRequest":
        """A request for one kernel fanned over ``lanes`` instances."""
        return cls(items=(BatchItem(name, "kernel", k),), lanes=lanes,
                   **kwargs)


@dataclass
class BatchLane:
    """Result of one lane (one artifact, or one kernel instance)."""

    item: BatchItem
    index: int                 # lane index within the item's fleet
    status: str                # "hit" | "computed" | "failed"
    payload: dict | None
    wall_s: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("hit", "computed")


@dataclass
class BatchResult:
    """Per-lane payloads plus aggregate stats for one batch."""

    lanes: list[BatchLane]
    jobs: int
    stats: dict = field(default_factory=dict)
    #: the embedded engine result for the batch's artifact items
    #: (``None`` when the batch was strict or kernel-only)
    sweep: SweepResult | None = None

    @property
    def ok(self) -> bool:
        return all(lane.ok for lane in self.lanes)

    @property
    def failed(self) -> list[BatchLane]:
        return [lane for lane in self.lanes if not lane.ok]

    def payloads(self) -> list[dict | None]:
        return [lane.payload for lane in self.lanes]

    def __len__(self) -> int:
        return len(self.lanes)


# ---------------------------------------------------------------------------
# compute_batch
# ---------------------------------------------------------------------------


def _as_item(obj) -> BatchItem:
    if isinstance(obj, BatchItem):
        return obj
    if isinstance(obj, str):
        return BatchItem(obj)
    raise TypeError(f"batch item must be BatchItem or str, got {obj!r}")


def _normalize_request(request, **overrides) -> BatchRequest:
    if isinstance(request, BatchRequest):
        req = request
    elif isinstance(request, (BatchItem, str)):
        req = BatchRequest(items=(_as_item(request),))
    else:
        req = BatchRequest(items=tuple(_as_item(x) for x in request))
    updates = {k: v for k, v in overrides.items() if v is not None}
    return replace(req, **updates) if updates else req


def _kernel_width(req: BatchRequest, indices: list[int]) -> int:
    if req.lanes is not None and len(indices) == 1:
        return req.lanes
    return len(indices)


def _run_artifacts(req: BatchRequest, items, slots, engine_kwargs
                   ) -> SweepResult | None:
    """Artifact items -> per-item BatchLanes (strict inline, or via the
    sweep engine with cache/pool semantics)."""
    if not items:
        return None
    if req.strict:
        if req.calibration is not None:
            from repro.model.system import SystemModel, use_model

            cm = use_model(SystemModel(req.calibration))
        else:
            cm = contextlib.nullcontext()
        with cm:
            for i, it in items:
                spec = _resolve(it.name, it.kind)
                start = time.perf_counter()
                with obs.span("api.compute_artifact",
                              artifact=spec.artifact_id):
                    payload = spec.payload()
                slots[i] = [BatchLane(it, 0, "computed", payload,
                                      time.perf_counter() - start)]
        return None

    specs: dict[tuple, ArtifactSpec] = {}
    for _, it in items:
        spec = _resolve(it.name, it.kind)
        specs.setdefault(spec.key, spec)
    store = ResultCache(req.cache_dir) \
        if (req.cache or req.cache_dir) else None
    engine = SweepEngine(jobs=req.jobs, cache=store,
                         calibration=req.calibration, **engine_kwargs)
    result = engine.run(list(specs.values()))
    by_key = {(o.kind, o.name): o for o in result.outcomes}
    for i, it in items:
        spec = _resolve(it.name, it.kind)
        outcome = by_key[spec.key]
        slots[i] = [BatchLane(it, 0, outcome.status, outcome.payload,
                              outcome.wall_s, outcome.error)]
    return result


def _run_kernels(req: BatchRequest, items, slots) -> dict:
    """Kernel items -> lane-engine fleets, one lock-step batch per
    distinct ``(name, k)``; returns summed engine counters."""
    if not items:
        return {}
    groups: dict[tuple[str, int], list[int]] = {}
    by_index = dict(items)
    for i, it in items:
        if it.k is None:
            raise ValueError(
                f"kernel batch item {it.name!r} needs k= (operand size)")
        groups.setdefault((it.name, it.k), []).append(i)

    totals: dict[str, int] = {}
    engine = SweepEngine(jobs=1, calibration=req.calibration)
    triples = [(name, k, _kernel_width(req, idxs))
               for (name, k), idxs in groups.items()]
    result = engine.run_lanes(triples)
    for ((name, k), idxs), outcome in zip(groups.items(),
                                          result.outcomes):
        width = _kernel_width(req, idxs)
        if not outcome.ok:
            for i in idxs:
                slots[i] = [BatchLane(by_index[i], 0, "failed", None,
                                      outcome.wall_s, outcome.error)]
            continue
        payload = outcome.payload or {}
        for key, value in (payload.get("engine") or {}).items():
            totals[key] = totals.get(key, 0) + value
        lanes = [
            BatchLane(by_index[idxs[0] if len(idxs) == 1 else idxs[j]],
                      j, "computed",
                      {"kernel": name, "k": k, "lane": j,
                       "cycles": payload["cycles"][j],
                       "instructions": payload["instructions"][j]},
                      outcome.wall_s / width)
            for j in range(width)
        ]
        if len(idxs) == 1:
            slots[idxs[0]] = lanes
        else:
            for j, i in enumerate(idxs):
                slots[i] = [lanes[j]]
    return totals


def compute_batch(request, *, jobs: int | None = None,
                  cache: bool | None = None, cache_dir=None,
                  calibration=None, lanes: int | None = None,
                  **engine_kwargs
                  ) -> BatchResult:
    """Run a fleet of artifact and/or kernel items.

    ``request`` is a :class:`BatchRequest`, a single item, or an
    iterable of items (strings resolve as artifact names); the explicit
    keywords override the request's fields.  Artifact items go through
    the sweep engine (``jobs`` processes, optional result cache);
    kernel items execute lock-step on the numpy lane engine, one batch
    per distinct ``(name, k)``.  Remaining keyword arguments reach
    :class:`~repro.sweep.engine.SweepEngine` (``timeout_s``,
    ``retries``, ``ledger``, ``compute``).
    """
    req = _normalize_request(request, jobs=jobs, cache=cache,
                             cache_dir=cache_dir,
                             calibration=calibration, lanes=lanes)
    start = time.perf_counter()
    artifact_items = [(i, it) for i, it in enumerate(req.items)
                      if not it.is_kernel]
    kernel_items = [(i, it) for i, it in enumerate(req.items)
                    if it.is_kernel]
    slots: dict[int, list[BatchLane]] = {}
    with obs.span("api.compute_batch", items=str(len(req.items)),
                  jobs=str(req.jobs)):
        sweep_result = _run_artifacts(req, artifact_items, slots,
                                      engine_kwargs)
        lane_counters = _run_kernels(req, kernel_items, slots)

    lanes_out: list[BatchLane] = []
    for i in range(len(req.items)):
        lanes_out.extend(slots[i])
    stats = {
        "items": len(req.items),
        "lanes": len(lanes_out),
        "hits": sum(1 for l in lanes_out if l.status == "hit"),
        "computed": sum(1 for l in lanes_out
                        if l.status == "computed"),
        "failed": sum(1 for l in lanes_out if not l.ok),
        "wall_s": time.perf_counter() - start,
        "lane_engine": lane_counters,
    }
    return BatchResult(lanes=lanes_out, jobs=req.jobs, stats=stats,
                       sweep=sweep_result)


# ---------------------------------------------------------------------------
# Scalar wrappers (batch-of-one)
# ---------------------------------------------------------------------------


def compute_artifact(name: str, kind: str | None = None, *,
                     jobs: int = 1, cache: bool = False, cache_dir=None,
                     calibration=None) -> dict:
    """Produce one artifact's payload (batch-of-one).

    ``name`` accepts the same tokens as ``runall --only`` (``"7.1"``,
    ``"table_7_2"``, ``"figure.s7.8"``) but must resolve to exactly one
    artifact.  The payload dict carries the rendered ``text``, the
    ``csv`` flattening, the ledger quantities (``cycles``,
    ``energy_uj``, ``data``, ``components``) and the production
    ``wall_s``.

    With the defaults this is byte-identical to the historical scalar
    path: computed inline, nothing cached, exceptions propagating.
    ``cache``/``cache_dir``/``jobs`` opt into the engine-backed path
    with :func:`sweep` semantics.
    """
    strict = not (cache or cache_dir is not None or jobs > 1)
    result = compute_batch(BatchRequest(
        items=(BatchItem(name, kind),), jobs=jobs,
        cache=bool(cache or cache_dir is not None), cache_dir=cache_dir,
        calibration=calibration, strict=strict))
    lane = result.lanes[0]
    if not lane.ok:
        raise RuntimeError(
            f"artifact {name!r} failed: {lane.error}")
    assert lane.payload is not None
    return lane.payload


def sweep(only=None, jobs: int = 1, cache: bool = True,
          cache_dir=None, calibration=None,
          **engine_kwargs) -> SweepResult:
    """Run artifacts (all of them, or an ``only`` selection) through
    the sweep engine -- a batch wrapper returning the embedded
    :class:`~repro.sweep.engine.SweepResult`.

    ``cache=True`` memoizes results in the on-disk content-addressed
    store (``cache_dir`` overrides its location); ``jobs>1`` fans tasks
    out over a process pool.  ``calibration`` is folded into the cache
    keys *and* installed around every task body (in workers too), so
    the results are always priced with the calibration they are cached
    under.  Remaining keyword arguments reach
    :class:`~repro.sweep.engine.SweepEngine` (``timeout_s``,
    ``retries``, ``ledger``, ``compute``).
    """
    specs = select(list(only) if only is not None else None)
    request = BatchRequest(
        items=tuple(BatchItem(s.name, s.kind) for s in specs),
        jobs=jobs, cache=cache, cache_dir=cache_dir,
        calibration=calibration)
    with obs.span("api.sweep", jobs=str(jobs),
                  artifacts=str(len(specs))):
        result = compute_batch(request, **engine_kwargs)
    if result.sweep is None:          # empty selection
        return SweepResult(outcomes=[], jobs=jobs)
    return result.sweep


class Session:
    """A calibration-scoped view of the whole reproduction.

    While the session is entered, :func:`repro.model.system.shared_model`
    -- and therefore every table/figure producer -- prices against the
    session's calibration, and the session's sweeps key the result
    cache with it (so sessions never poison each other's cache
    entries).
    """

    def __init__(self, calibration=None) -> None:
        from repro.energy.calibration import CALIBRATION
        from repro.model.system import SystemModel

        self.calibration = calibration if calibration is not None \
            else CALIBRATION
        self.model = SystemModel(self.calibration)
        self._cm = None
        self._depth = 0

    @property
    def fingerprint(self) -> str:
        return self.calibration.fingerprint()

    def runner(self, ledger=None):
        """A kernel runner keyed to this session's calibration."""
        from repro.kernels.runner import KernelRunner

        return KernelRunner(ledger=ledger, calibration=self.calibration)

    def compute_artifact(self, name: str, kind: str | None = None,
                         **kwargs) -> dict:
        with self, obs.span("api.session",
                            calibration=self.fingerprint[:12]):
            return compute_artifact(name, kind,
                                    calibration=self.calibration,
                                    **kwargs)

    def compute_batch(self, request, **kwargs) -> BatchResult:
        with self, obs.span("api.session",
                            calibration=self.fingerprint[:12]):
            return compute_batch(request,
                                 calibration=self.calibration, **kwargs)

    def sweep(self, only=None, jobs: int = 1, **kwargs) -> SweepResult:
        with self, obs.span("api.session",
                            calibration=self.fingerprint[:12]):
            return sweep(only, jobs=jobs,
                         calibration=self.calibration, **kwargs)

    # -- context management (re-entrant) --------------------------------

    def __enter__(self) -> Session:
        from repro.model.system import use_model

        if self._depth == 0:
            self._cm = use_model(self.model)
            self._cm.__enter__()
        self._depth += 1
        return self

    def __exit__(self, *exc) -> None:
        if self._depth == 0 or self._cm is None:
            raise RuntimeError(
                "Session.__exit__ without a matching __enter__")
        self._depth -= 1
        if self._depth == 0:
            cm, self._cm = self._cm, None
            cm.__exit__(*exc)


def open_session(calibration=None) -> Session:
    """A :class:`Session` for ``calibration`` (default: the calibrated
    coefficients shipped with the repo).  Use as a context manager::

        with open_session(calibration=my_cal) as s:
            payload = s.compute_artifact("table_7.1")
    """
    return Session(calibration)


@contextlib.asynccontextmanager
async def serve_session(config: ServeConfig | None = None, **kwargs):
    """Boot the signing service for the duration of an ``async with``.

    ``config`` is a :class:`ServeConfig`; keyword arguments override
    its fields (or build one from scratch), so the common cases stay
    one-liners::

        async with serve_session(workers=2) as service:
            response = await service.submit(ServeRequest("sign"))

    On exit the service drains in-flight requests (new submissions
    raise :class:`ServiceDraining`), stops every worker process, and
    appends its ``kind="serve"`` ledger record.
    """
    if config is None:
        config = ServeConfig(**kwargs)
    elif kwargs:
        config = replace(config, **kwargs)
    service = SigningService(config)
    await service.start()
    try:
        yield service
    finally:
        await service.stop()
