"""Public facade: the one import surface for driving the reproduction.

Entry points (documented in ``docs/API.md``):

* :func:`compute_artifact` -- one table/figure payload.  With the
  defaults it is produced inline (exceptions propagate, nothing is
  cached); ``cache``/``cache_dir``/``jobs>1`` run it through a one-spec
  :class:`~repro.sweep.engine.SweepEngine` instead.
* :func:`sweep` -- the artifact cross-product (or a selection) through
  the sweep engine with the content-addressed result cache, returning
  its :class:`~repro.sweep.engine.SweepResult`.
* :func:`open_session` -- a context in which every producer, kernel
  runner and sweep prices against a caller-supplied
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

The entry points share one keyword vocabulary --- ``jobs`` (process
fan-out), ``cache``/``cache_dir`` (the on-disk result store),
``calibration`` --- and one name-resolution path (:func:`_resolve`).

Everything here delegates to :mod:`repro.harness.registry`,
:mod:`repro.sweep` and :mod:`repro.kernels.runner`; nothing below this
module needs to be imported for ordinary use.  The exported surface is
exactly ``__all__``; ``tests/harness/test_api_surface.py`` pins it.
"""

from __future__ import annotations

import contextlib
from dataclasses import replace

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


def compute_artifact(name: str, kind: str | None = None, *,
                     jobs: int = 1, cache: bool = False, cache_dir=None,
                     calibration=None) -> dict:
    """Produce one artifact's payload.

    ``name`` accepts the same tokens as ``runall --only`` (``"7.1"``,
    ``"table_7_2"``, ``"figure.s7.8"``) but must resolve to exactly one
    artifact.  The payload dict carries the rendered ``text``, the
    ``csv`` flattening, the ledger quantities (``cycles``,
    ``energy_uj``, ``data``, ``components``) and the production
    ``wall_s``.

    With the defaults the payload is computed inline: nothing cached,
    exceptions propagating.  ``cache``/``cache_dir``/``jobs`` opt into
    a one-spec :class:`~repro.sweep.engine.SweepEngine` with
    :func:`sweep` semantics (a failed task raises ``RuntimeError``).
    """
    spec = _resolve(name, kind)
    cached = cache or cache_dir is not None
    with obs.span("api.compute_artifact", artifact=spec.artifact_id):
        if not (cached or jobs > 1):
            if calibration is None:
                return spec.payload()
            from repro.model.system import SystemModel, use_model

            with use_model(SystemModel(calibration)):
                return spec.payload()
        engine = SweepEngine(
            jobs=jobs, cache=ResultCache(cache_dir) if cached else None,
            calibration=calibration)
        (outcome,) = engine.run([spec]).outcomes
    if not outcome.ok:
        raise RuntimeError(f"artifact {name!r} failed: {outcome.error}")
    assert outcome.payload is not None
    return outcome.payload


def sweep(only=None, jobs: int = 1, cache: bool = True,
          cache_dir=None, calibration=None,
          **engine_kwargs) -> SweepResult:
    """Run artifacts (all of them, or an ``only`` selection) through
    the sweep engine.

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
    store = ResultCache(cache_dir) if (cache or cache_dir) else None
    with obs.span("api.sweep", jobs=str(jobs),
                  artifacts=str(len(specs))):
        return SweepEngine(jobs=jobs, cache=store,
                           calibration=calibration,
                           **engine_kwargs).run(specs)


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
