"""The always-on signing service plane.

A long-lived asyncio front-end (:class:`SigningService`) over
persistent warm worker processes: requests for ``sign`` / ``verify`` /
``ecdh`` across curves are admitted into a bounded backpressure queue,
coalesced into homogeneous micro-batches, and executed lock-step on
the lane engine by workers that hold pre-compiled lane block maps --
steady-state requests never pay discovery or compilation.

See ``ARCHITECTURE.md`` (service plane) for the queueing model and
worker warm-state lifecycle, and :mod:`repro.serve.loadgen` for the
open-loop load generator behind ``python -m repro.serve``.
"""

from repro.serve.loadgen import (
    DEFAULT_MIX,
    LoadConfig,
    LoadReport,
    run_load,
)
from repro.serve.queue import AdmissionQueue, QueueEntry
from repro.serve.service import ServeConfig, SigningService, serve
from repro.serve.types import (
    CURVES,
    OPERATIONS,
    PLANS,
    KernelPlan,
    RequestShed,
    ServeError,
    ServeRequest,
    ServeResponse,
    ServiceDraining,
    UnknownOperation,
    UnsupportedConfig,
    WorkerFailure,
    plan_for,
)

__all__ = [
    "AdmissionQueue",
    "CURVES",
    "DEFAULT_MIX",
    "KernelPlan",
    "LoadConfig",
    "LoadReport",
    "OPERATIONS",
    "PLANS",
    "QueueEntry",
    "RequestShed",
    "ServeConfig",
    "ServeError",
    "ServeRequest",
    "ServeResponse",
    "ServiceDraining",
    "SigningService",
    "UnknownOperation",
    "UnsupportedConfig",
    "WorkerFailure",
    "plan_for",
    "run_load",
    "serve",
]
