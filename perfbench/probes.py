"""Layer probes for traced benchmark runs.

A traced run wraps public functions of every layer from here.  Each
wrapper is bound at *every* module that holds the original object, not
only where it is defined: ``from x import f`` copies the reference at
import time (``repro.model.system`` binds ``cache_study``,
``repro.accel.billie`` binds ``digit_serial_mul``), so a wrapper on the
defining module alone would record nothing.

Hot leaves (tens of thousands of calls a run) only add to a
:class:`Probe`: call count, inclusive time, time spent in nested
probes, lru-cache misses.  Coarse calls (one per artifact payload or
sweep task) also open a :mod:`repro.obs` span.  A probe's self time is
its inclusive time minus its nested probes' time.

Worker processes (sweep pool workers, serve workers) start with a copy
of the parent's probes; the outermost probe in a worker drops that copy
and, when it returns, flushes the worker's probes into :mod:`repro.obs`
counters, which the sweep engine and the service ship back to the
parent with the rest of their telemetry.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import pkgutil
import sys
import time
from dataclasses import dataclass

#: The :mod:`repro.obs` counter worker probes are flushed into.
COUNTER = "perfbench_probe"
FIELDS = ("calls", "total_s", "child_s", "misses", "items")

#: Probe names of the artifact payloads reported one by one; the rest
#: are summed into ``harness.payload.rest``.
NAMED_PAYLOADS = ("table_7.2", "table_7.1", "figure_7.12", "figure_7.14",
                  "figure_7.1", "table_bounds")


@dataclass
class Probe:
    """What one wrapped function did during a run."""

    calls: int = 0
    total_s: float = 0.0        # inclusive wall time
    child_s: float = 0.0        # time inside nested probes
    misses: int = 0             # lru-cache misses during the calls
    items: int = 0              # work units the calls reported

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s

    def add(self, other: "Probe") -> None:
        for name in FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class Recorder:
    """The probes of one process, with the nesting stack that turns
    inclusive times into self times."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.probes: dict[str, Probe] = {}
        self.stack: list[float] = []
        self.pid = os.getpid()
        self.root_pid = self.pid

    def probe(self, name: str) -> Probe:
        probe = self.probes.get(name)
        if probe is None:
            probe = self.probes[name] = Probe()
        return probe

    def adopt_process(self) -> None:
        """In a forked worker: drop the parent's probes and stack."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.probes = {}
            self.stack = []

    def wrap(self, fn, name: str, *, name_of=None, misses=None,
             count=None, span: str | None = None, root: bool = False):
        """``fn`` timed into probe ``name`` (or ``name_of(args)``).

        ``misses`` returns an lru-cache miss counter read around the
        call; ``count`` maps the result to work units; ``span`` also
        records a :mod:`repro.obs` span of that name; ``root`` marks
        the outermost probe of a worker process, which adopts the
        process and flushes its probes on return.
        """
        from repro import obs

        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if root:
                rec.adopt_process()
            probe = rec.probe(name if name_of is None else name_of(args))
            m0 = misses() if misses is not None else 0
            opened = (obs.span(span, probe=name_of(args) if name_of
                               else name).start()
                      if span is not None else None)
            stack = rec.stack
            stack.append(0.0)
            t0 = rec.clock()
            status = "error"
            try:
                result = fn(*args, **kwargs)
                status = "ok"
            finally:
                dt = rec.clock() - t0
                probe.child_s += stack.pop()
                probe.calls += 1
                probe.total_s += dt
                if stack:
                    stack[-1] += dt
                if misses is not None:
                    probe.misses += misses() - m0
                if opened is not None:
                    opened.finish(status)
            if count is not None:
                probe.items += count(result)
            if root and rec.pid != rec.root_pid:
                rec.flush()
            return result

        wrapper.__wrapped_by_perfbench__ = fn
        return wrapper

    @contextlib.contextmanager
    def region(self, name: str):
        """Time a block (the measured passes) as probe ``name``."""
        from repro import obs

        probe = self.probe(name)
        self.stack.append(0.0)
        t0 = self.clock()
        with obs.span(name):
            try:
                yield probe
            finally:
                dt = self.clock() - t0
                probe.child_s += self.stack.pop()
                probe.calls += 1
                probe.total_s += dt
                if self.stack:
                    self.stack[-1] += dt

    # -- cross-process -------------------------------------------------

    def flush(self) -> None:
        """Move this process's probes into :mod:`repro.obs` counters."""
        from repro import obs

        tel = obs.get()
        if tel is None:
            return
        for name, probe in self.probes.items():
            for field in FIELDS:
                value = getattr(probe, field)
                if value:
                    tel.counter(COUNTER, probe=name, field=field).inc(value)
        self.probes = {}

    def collect(self) -> dict[str, Probe]:
        """Every process's probes: this one's plus what workers shipped
        back into the active telemetry."""
        from repro import obs

        out: dict[str, Probe] = {}
        for name, probe in self.probes.items():
            out.setdefault(name, Probe()).add(probe)
        tel = obs.get()
        if tel is not None:
            for entry in tel.registry.state_dict()["metrics"]:
                if entry["name"] != COUNTER:
                    continue
                labels = entry["labels"]
                probe = out.setdefault(labels["probe"], Probe())
                field = labels["field"]
                value = entry["value"]
                if field in ("calls", "misses", "items"):
                    value = int(value)
                setattr(probe, field, getattr(probe, field) + value)
        return out


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------


def import_all() -> None:
    """Import every ``repro`` module, so each one that binds a wrapped
    function is in ``sys.modules`` before patching."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass


def patch_everywhere(orig, replacement) -> int:
    """Rebind every ``repro`` module attribute that *is* ``orig``;
    returns how many bindings changed."""
    changed = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                changed += 1
    return changed


def _payload_name(args) -> str:
    return f"harness.payload.{args[0].artifact_id}"


def install(rec: Recorder) -> dict[str, int]:
    """Wrap every probed function; returns bindings changed per probe."""
    import_all()
    from repro.accel import digit_serial
    from repro.fields.binary import BinaryField
    from repro.fields.prime import PrimeField
    from repro.harness.registry import ArtifactSpec
    from repro.kernels.runner import KernelRunner
    from repro.model import billie_driver, costs, icache_model, opcount
    from repro.model.system import SystemModel
    from repro.pete.lanes import LaneEngine
    from repro.serve.worker import _WorkerState
    from repro.sweep import engine, keys
    from repro.sweep.cache import ResultCache

    def lru_misses(cached):
        return lambda: cached.cache_info().misses

    methods = [
        (BinaryField, "mul", "fields.binary_mul", {}),
        (BinaryField, "sqr", "fields.binary_sqr", {}),
        (PrimeField, "mul", "fields.prime_mul", {}),
        (PrimeField, "sqr", "fields.prime_sqr", {}),
        (SystemModel, "activity", "model.activity", {}),
        (KernelRunner, "measure", "kernels.measure", {}),
        (KernelRunner, "_run_once", "kernels.simulate",
         {"count": lambda result: result.instructions}),
        (ResultCache, "get", "sweep.cache.get", {}),
        (ResultCache, "put", "sweep.cache.put", {}),
        (LaneEngine, "run", "pete.lanes.run", {}),
        (ArtifactSpec, "payload", "harness.payload",
         {"name_of": _payload_name, "span": "harness.payload"}),
        (_WorkerState, "warm_plan", "serve.worker.warm", {"root": True}),
        (_WorkerState, "run_batch", "serve.worker.batch", {"root": True}),
    ]
    functions = [
        (digit_serial, "digit_serial_mul", "accel.digit_serial_mul", {}),
        (digit_serial, "hardwired_square", "accel.hardwired_square", {}),
        (billie_driver, "run_sliding_window", "accel.billie_run", {}),
        (billie_driver, "run_twin", "accel.billie_run", {}),
        (icache_model, "cache_study", "model.cache_study",
         {"misses": lru_misses(icache_model.cache_study)}),
        (opcount, "ecdsa_opcounts", "model.opcounts",
         {"misses": lru_misses(opcount.ecdsa_opcounts)}),
        (costs, "software_costs", "model.software_costs",
         {"misses": lru_misses(costs._software_costs)}),
        (keys, "artifact_key", "sweep.key", {}),
        (engine, "_compute_payload", "sweep.task",
         {"root": True, "span": "perfbench.task"}),
    ]
    bound: dict[str, int] = {}
    for cls, attr, name, opts in methods:
        setattr(cls, attr, rec.wrap(getattr(cls, attr), name, **opts))
        bound[name] = bound.get(name, 0) + 1
    for mod, attr, name, opts in functions:
        orig = getattr(mod, attr)
        bound[name] = bound.get(name, 0) + patch_everywhere(
            orig, rec.wrap(orig, name, **opts))
    return bound


# ---------------------------------------------------------------------------
# Cost of a probe
# ---------------------------------------------------------------------------


def per_call_overhead_s(calls: int = 20000) -> float:
    """Measured extra wall time one probed call costs over a bare call."""
    def noop():
        return None

    wrapped = Recorder().wrap(noop, "overhead")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        best = min(best, time.perf_counter() - t0 - bare)
    return max(0.0, best / calls)
