"""Build, run and check the generated kernels on Pete.

Every measurement doubles as a correctness check: the kernel's output
words in simulated RAM are compared against a reference before the
cycle count is accepted.  What each kernel is -- source, entry, ISA
switches, operands, reference -- lives in :mod:`repro.kernels.catalog`;
the runner builds every core from that table through one path.  The
kernels are deterministic, so results are memoized in a process-wide
cache shared by every runner, keyed ``(kernel, k, calibration
fingerprint)`` -- the fingerprint keeps runners built from different
calibrations from ever serving each other's entries (the ISA feature
set is implied by the kernel name).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.kernels import catalog
from repro.pete.cpu import Pete


@dataclass(frozen=True)
class KernelResult:
    """Timing and activity of one kernel invocation."""

    name: str
    k: int
    cycles: int
    instructions: int
    ram_reads: int
    ram_writes: int

    @property
    def rom_reads(self) -> int:
        """Uncached fetch: one ROM word read per instruction."""
        return self.instructions


#: Process-wide measurement memo shared by every runner (externalized
#: from the old per-instance cache so sweeps, the gate and the harness
#: never re-simulate a kernel another runner already measured).
_SHARED_CACHE: dict[tuple, KernelResult] = {}


class KernelRunner:
    """Builds and times kernels; checks each run against its reference.

    ``cache`` overrides the process-wide shared measurement memo (pass
    ``{}`` for an isolated runner); ``calibration`` is folded into the
    cache key so runners with different calibrations cannot serve each
    other stale entries.  Simulations step the reference interpreter
    (:meth:`repro.pete.cpu.Pete.run`).
    """

    def __init__(self, ledger=None, calibration=None,
                 cache: dict | None = None) -> None:
        if calibration is None:
            from repro.energy.calibration import CALIBRATION

            calibration = CALIBRATION
        self.cal = calibration
        self._cache = _SHARED_CACHE if cache is None else cache
        self._recorded: set[tuple] = set()
        if ledger is None:
            from repro.regress.ledger import default_ledger

            ledger = default_ledger()
        self.ledger = ledger

    # -- public measurement API ------------------------------------------

    def _cache_key(self, name: str, k: int) -> tuple:
        return (name, k, self.cal.fingerprint())

    def measure(self, name: str, k: int, trials: int = 3) -> KernelResult:
        """Median-of-``trials`` cycle measurement for a kernel at size k.

        First measurement per (kernel, k) also appends one record to the
        runner's ledger (a no-op unless a ledger is configured -- see
        :func:`repro.regress.ledger.default_ledger`), even when the
        shared cache already held the result.
        """
        key = self._cache_key(name, k)
        if key not in self._cache:
            runs = [self._run_once(name, k) for _ in range(trials)]
            runs.sort(key=lambda r: r.cycles)
            self._cache[key] = runs[len(runs) // 2]
        if key not in self._recorded:
            self._recorded.add(key)
            from repro.trace.record import kernel_record

            self.ledger.append(kernel_record(self._cache[key]))
        return self._cache[key]

    def profile(self, name: str, k: int, params=None, extra_sinks=()):
        """Run one kernel with tracing on; returns ``(profiler, cpu)``.

        ``params`` is a :class:`repro.energy.simulated.RunEnergyParams`
        (defaults match the plain software configuration the kernels run
        in).  ``extra_sinks`` (e.g. a :class:`CollectingSink` or a
        :class:`PowerSampler`) see the same event stream.
        """
        from repro.trace.bus import TraceBus
        from repro.trace.profiler import Profiler, Symbolizer

        if params is None:
            from repro.energy.calibration import CALIBRATION
            from repro.energy.simulated import RunEnergyParams

            if self.cal is not CALIBRATION:
                params = RunEnergyParams(cal=self.cal)
        bus = TraceBus()
        profiler = Profiler(params=params)
        bus.attach(profiler)
        for sink in extra_sinks:
            bus.attach(sink)
        symbols = Symbolizer.from_program(catalog.image(name, k))
        for sink in bus.sinks:
            if getattr(sink, "symbols", "absent") is None:
                sink.symbols = symbols
        return profiler, self._simulate(name, k, tracer=bus)

    def prepare(self, name: str, k: int) -> tuple[Pete, int]:
        """A fully-loaded, ready-to-run cpu for ``(kernel, k)``.

        The same core :meth:`measure` runs (program loaded, pointer
        arguments set, operands drawn and written to RAM), returned as
        ``(cpu, entry)`` just before ``run``.
        """
        cpu, entry, _ = self._build(name, k)
        return cpu, entry

    def prepare_lanes(self, name: str, k: int,
                      lanes: int) -> tuple[list[Pete], int]:
        """``lanes`` independently-prepared cores for ``(kernel, k)``.

        Each core gets fresh operands from the shared RNG (exactly what
        ``lanes`` consecutive :meth:`prepare` calls would draw), so a
        batch is a fleet of *distinct* problem instances over one
        program image.  Returns ``(cores, entry)``.
        """
        cores = []
        entry = None
        for _ in range(lanes):
            cpu, e = self.prepare(name, k)
            if entry is None:
                entry = e
            elif e != entry:  # pragma: no cover - programs are static
                raise RuntimeError(f"kernel {name!r}: unstable entry")
            cores.append(cpu)
        assert entry is not None
        return cores, entry

    # -- the one build path ----------------------------------------------

    def _build(self, name: str, k: int, tracer=None
               ) -> tuple[Pete, int, catalog.Operands]:
        """Build ``(kernel, k)``'s core from its catalog entry: the
        memoized image loaded, ``$ra`` at the halt stub, and one drawn
        instance's operands in place.  Returns ``(cpu, entry,
        operands)``."""
        kernel = catalog.lookup(name, k)
        program = catalog.image(name, k)
        cpu = Pete(extensions=kernel.prime_ext,
                   binary_extensions=kernel.binary_ext, tracer=tracer)
        cpu.load(program)
        cpu.set_reg("ra", program.address_of(catalog.HALT))
        operands = kernel.operands(k)
        operands.load(cpu)
        return cpu, program.address_of(kernel.entry), operands

    def _simulate(self, name: str, k: int, tracer=None) -> Pete:
        """Build, run and check one instance; returns the finished cpu."""
        cpu, entry, operands = self._build(name, k, tracer)
        cpu.run(entry)
        operands.check(cpu, f"{name} at k={k}")
        return cpu

    def _run_once(self, name: str, k: int) -> KernelResult:
        s = self._simulate(name, k).stats
        return KernelResult(name, k, s.cycles, s.instructions,
                            s.ram_reads, s.ram_writes)


@lru_cache(maxsize=1)
def shared_runner() -> KernelRunner:
    """Process-wide runner so kernel measurements are made once."""
    return KernelRunner()
