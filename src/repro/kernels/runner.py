"""Assemble, validate and time the generated kernels on Pete.

Every measurement doubles as a correctness check: the kernel's output
words in simulated RAM are compared against the :mod:`repro.mp` reference
before the cycle count is accepted.  The kernels are deterministic, so
results are memoized in a process-wide cache shared by every runner,
keyed ``(kernel, k, calibration fingerprint)`` -- the fingerprint keeps
runners built from different calibrations from ever serving each
other's entries (the ISA feature set is implied by the kernel name).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from repro.fields.inversion import _poly_mul, _poly_sqr
from repro.fields.nist import NIST_PRIMES, reduce_binary
from repro.mp.binary_sqr import SQUARE_TABLE_8BIT
from repro.mp.words import from_int, to_int
from repro.pete.assembler import assemble
from repro.pete.blocks import BoundedMemo
from repro.pete.cpu import Pete
from repro.pete.memory import RAM_BASE
from repro.kernels import (
    binary_kernels,
    prime_kernels,
    scalar_kernels,
    symmetric_kernels,
)

# RAM layout for kernel harnesses (RAM_BASE-relative byte offsets).
DST_OFF = 0x400   # result area (also reduction scratch at +256)
A_OFF = 0x800
B_OFF = 0x900
TABLE_OFF = 0xA00  # comb table (<= 2 KB) or squaring table (512 B)

_RNG = random.Random(0xECC)


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

#: Assembly memo keyed by full source text: batched preparation builds
#: the same program once per lane, and the assembler dominates prepare
#: time.  The Assembled object is immutable after construction, so
#: sharing one instance across cores (and across runners) is safe.
_ASSEMBLED_MEMO = BoundedMemo(256)


class _CapturedRun(Exception):
    """Internal: carries a fully-prepared cpu out of a kernel builder."""

    def __init__(self, cpu: Pete, entry: int) -> None:
        super().__init__("captured")
        self.cpu = cpu
        self.entry = entry


class KernelRunner:
    """Builds and times kernels; validates against :mod:`repro.mp`.

    ``cache`` overrides the process-wide shared measurement memo (pass
    ``{}`` for an isolated runner); ``calibration`` is folded into the
    cache key so runners with different calibrations cannot serve each
    other stale entries.  Simulations run block-threaded
    (:meth:`repro.pete.cpu.Pete.run`), which is stats-identical to the
    reference interpreter (enforced by ``python -m
    repro.pete.diffexec``).
    """

    def __init__(self, ledger=None, calibration=None,
                 cache: dict | None = None) -> None:
        if calibration is None:
            from repro.energy.calibration import CALIBRATION

            calibration = CALIBRATION
        self.cal = calibration
        self._cache = _SHARED_CACHE if cache is None else cache
        self._recorded: set[tuple] = set()
        self._tracer = None          # TraceBus threaded through _build_cpu
        self._capture = False        # prepare() interception flag
        self._last_cpu: Pete | None = None
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
        from repro.trace.profiler import Profiler

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
        self._tracer = bus
        try:
            self._run_once(name, k)
        finally:
            self._tracer = None
        return profiler, self._last_cpu

    def prepare(self, name: str, k: int) -> tuple[Pete, int]:
        """A fully-loaded, ready-to-run cpu for ``(kernel, k)``.

        Builds the same harness :meth:`measure` would (program
        assembled, pointer arguments set, operands written to RAM) but
        stops just before ``run``, returning ``(cpu, entry)``.  The
        lock-step differential harness (:mod:`repro.pete.diffexec`)
        clones the prepared core so the fast and reference interpreters
        consume byte-identical inputs.
        """
        self._capture = True
        try:
            self._run_once(name, k)
        except _CapturedRun as captured:
            return captured.cpu, captured.entry
        finally:
            self._capture = False
        raise RuntimeError(
            f"kernel {name!r} never launched its cpu")  # pragma: no cover

    def prepare_lanes(self, name: str, k: int,
                      lanes: int) -> tuple[list[Pete], int]:
        """``lanes`` independently-prepared cores for ``(kernel, k)``.

        Each core gets fresh operands from the module RNG (exactly what
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

    def _launch(self, cpu: Pete, entry: int):
        """Every kernel builder starts its cpu through this hook, so
        prepare()'s capture applies uniformly."""
        if self._capture:
            raise _CapturedRun(cpu, entry)
        return cpu.run(entry)

    # -- harness construction -----------------------------------------------

    def _build_cpu(self, source: str, entry_label: str,
                   extensions: bool, binary_extensions: bool
                   ) -> tuple[Pete, int]:
        full = source + "\n__halt:\n    halt\n"
        program = _ASSEMBLED_MEMO.get(full)
        if program is None:
            program = _ASSEMBLED_MEMO.put(full, assemble(full, base=0))
        cpu = Pete(extensions=extensions, binary_extensions=binary_extensions,
                   tracer=self._tracer)
        cpu.load(program)
        if self._tracer is not None:
            from repro.trace.profiler import Symbolizer

            sym = Symbolizer.from_program(program)
            for sink in self._tracer.sinks:
                if getattr(sink, "symbols", "absent") is None:
                    sink.symbols = sym
        cpu.set_reg("ra", program.address_of("__halt"))
        self._last_cpu = cpu
        return cpu, program.address_of(entry_label)

    def _run_once(self, name: str, k: int) -> KernelResult:
        builder = getattr(self, f"_run_{name}", None)
        if builder is None:
            raise KeyError(f"unknown kernel {name!r}")
        return builder(k)

    @staticmethod
    def _result(name: str, k: int, cpu: Pete) -> KernelResult:
        s = cpu.stats
        return KernelResult(name, k, s.cycles, s.instructions,
                            s.ram_reads, s.ram_writes)

    # -- individual kernels ---------------------------------------------------

    def _run_mp_add(self, k: int) -> KernelResult:
        a = _RNG.getrandbits(32 * k)
        b = _RNG.getrandbits(32 * k)
        cpu, entry = self._build_cpu(prime_kernels.gen_mp_add(k), "mp_add",
                                     False, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF, b=B_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, k))
        cpu.mem.write_ram_words(RAM_BASE + B_OFF, from_int(b, k))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, k))
        carry = cpu.get_reg("v0")
        assert got + (carry << (32 * k)) == a + b, "mp_add mismatch"
        return self._result("mp_add", k, cpu)

    def _run_mp_sub(self, k: int) -> KernelResult:
        a = _RNG.getrandbits(32 * k)
        b = _RNG.getrandbits(32 * k)
        cpu, entry = self._build_cpu(prime_kernels.gen_mp_sub(k), "mp_sub",
                                     False, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF, b=B_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, k))
        cpu.mem.write_ram_words(RAM_BASE + B_OFF, from_int(b, k))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, k))
        borrow = cpu.get_reg("v0")
        assert got == (a - b) % (1 << (32 * k)), "mp_sub mismatch"
        assert borrow == (1 if a < b else 0), "mp_sub borrow mismatch"
        return self._result("mp_sub", k, cpu)

    def _run_os_mul(self, k: int) -> KernelResult:
        a = _RNG.getrandbits(32 * k)
        b = _RNG.getrandbits(32 * k)
        cpu, entry = self._build_cpu(prime_kernels.gen_os_mul(k), "os_mul",
                                     False, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF, b=B_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, k))
        cpu.mem.write_ram_words(RAM_BASE + B_OFF, from_int(b, k))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 2 * k))
        assert got == a * b, "os_mul mismatch"
        return self._result("os_mul", k, cpu)

    def _run_ps_mul_ext(self, k: int) -> KernelResult:
        a = _RNG.getrandbits(32 * k)
        b = _RNG.getrandbits(32 * k)
        cpu, entry = self._build_cpu(prime_kernels.gen_ps_mul_ext(k),
                                     "ps_mul_ext", True, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF, b=B_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, k))
        cpu.mem.write_ram_words(RAM_BASE + B_OFF, from_int(b, k))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 2 * k))
        assert got == a * b, "ps_mul_ext mismatch"
        return self._result("ps_mul_ext", k, cpu)

    def _run_ps_sqr_ext(self, k: int) -> KernelResult:
        a = _RNG.getrandbits(32 * k)
        cpu, entry = self._build_cpu(
            prime_kernels.gen_ps_mul_ext(k, squaring=True), "ps_sqr_ext",
            True, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF, b=A_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, k))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 2 * k))
        assert got == a * a, "ps_sqr_ext mismatch"
        return self._result("ps_sqr_ext", k, cpu)

    def _run_red_p192(self, k: int = 6) -> KernelResult:
        a = _RNG.getrandbits(192)
        b = _RNG.getrandbits(192)
        product = a * b
        cpu, entry = self._build_cpu(prime_kernels.gen_red_p192(),
                                     "red_p192", False, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(product, 12))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 6))
        assert got == product % NIST_PRIMES[192], "red_p192 mismatch"
        return self._result("red_p192", 6, cpu)

    def _run_comb_mul(self, k: int) -> KernelResult:
        bits = 32 * k
        a = _RNG.getrandbits(bits)
        b = _RNG.getrandbits(bits - 4)  # headroom word holds the spill
        cpu, entry = self._build_cpu(binary_kernels.gen_comb_mul(k),
                                     "comb_mul", False, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF, b=B_OFF,
                           table=TABLE_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, k))
        cpu.mem.write_ram_words(RAM_BASE + B_OFF, from_int(b, k))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 2 * k + 2))
        assert got == _poly_mul(a, b), "comb_mul mismatch"
        return self._result("comb_mul", k, cpu)

    def _run_ps_mulgf2(self, k: int) -> KernelResult:
        a = _RNG.getrandbits(32 * k)
        b = _RNG.getrandbits(32 * k)
        # the paper's binary-extended ISA is cumulative with the prime
        # extensions (Section 5.2.2), so SHA is available
        cpu, entry = self._build_cpu(binary_kernels.gen_ps_mulgf2(k),
                                     "ps_mulgf2", True, True)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF, b=B_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, k))
        cpu.mem.write_ram_words(RAM_BASE + B_OFF, from_int(b, k))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 2 * k))
        assert got == _poly_mul(a, b), "ps_mulgf2 mismatch"
        return self._result("ps_mulgf2", k, cpu)

    def _run_bsqr_table(self, k: int) -> KernelResult:
        a = _RNG.getrandbits(32 * k)
        cpu, entry = self._build_cpu(binary_kernels.gen_bsqr_table(k),
                                     "bsqr_table", False, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF, table=TABLE_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, k))
        table_bytes = b"".join(v.to_bytes(2, "little")
                               for v in SQUARE_TABLE_8BIT)
        cpu.mem.write_ram(RAM_BASE + TABLE_OFF, table_bytes)
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 2 * k))
        assert got == _poly_sqr(a), "bsqr_table mismatch"
        return self._result("bsqr_table", k, cpu)

    def _run_bsqr_ext(self, k: int) -> KernelResult:
        a = _RNG.getrandbits(32 * k)
        cpu, entry = self._build_cpu(binary_kernels.gen_bsqr_ext(k),
                                     "bsqr_ext", False, True)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, k))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 2 * k))
        assert got == _poly_sqr(a), "bsqr_ext mismatch"
        return self._result("bsqr_ext", k, cpu)

    def _run_speck64(self, k: int = 1) -> KernelResult:
        """One Speck64/128 block; k is unused (fixed-size kernel)."""
        from repro.symmetric.speck import speck64_encrypt, speck64_expand_key

        key = _RNG.getrandbits(128)
        block = _RNG.getrandbits(64)
        round_keys = speck64_expand_key(key)
        cpu, entry = self._build_cpu(
            symmetric_kernels.gen_speck64_encrypt(), "speck64_enc",
            False, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF, b=B_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF,
                                [block & 0xFFFFFFFF, block >> 32])
        cpu.mem.write_ram_words(RAM_BASE + B_OFF, round_keys)
        self._launch(cpu, entry)
        words = cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 2)
        got = words[0] | (words[1] << 32)
        assert got == speck64_encrypt(block, round_keys), "speck mismatch"
        return self._result("speck64", 1, cpu)

    def _run_red_b163(self, k: int = 6) -> KernelResult:
        a = _RNG.getrandbits(163)
        b = _RNG.getrandbits(163)
        product = _poly_mul(a, b)
        cpu, entry = self._build_cpu(binary_kernels.gen_red_b163(),
                                     "red_b163", False, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(product, 11))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 6))
        assert got == reduce_binary(product, 163), "red_b163 mismatch"
        return self._result("red_b163", 6, cpu)

    def _run_scalar_daa(self, k: int = 8) -> KernelResult:
        """Double-and-add scalar loop; k is the scalar bit-width."""
        scalar = _RNG.getrandbits(k)
        value = _RNG.getrandbits(32)
        cpu, entry = self._build_cpu(scalar_kernels.gen_scalar_daa(k),
                                     "scalar_daa", False, False)
        self._set_ptr_args(cpu, dst=DST_OFF)
        cpu.set_reg("a1", scalar)
        cpu.set_reg("a2", value)
        self._launch(cpu, entry)
        got = cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 1)[0]
        assert got == (scalar * value) & 0xFFFFFFFF, "scalar_daa mismatch"
        return self._result("scalar_daa", k, cpu)

    def _run_scalar_ladder(self, k: int = 8) -> KernelResult:
        """Montgomery-ladder scalar loop; k is the scalar bit-width."""
        scalar = _RNG.getrandbits(k)
        value = _RNG.getrandbits(32)
        cpu, entry = self._build_cpu(scalar_kernels.gen_scalar_ladder(k),
                                     "scalar_ladder", False, False)
        self._set_ptr_args(cpu, dst=DST_OFF)
        cpu.set_reg("a1", scalar)
        cpu.set_reg("a2", value)
        self._launch(cpu, entry)
        got = cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 1)[0]
        assert got == (scalar * value) & 0xFFFFFFFF, "scalar_ladder mismatch"
        return self._result("scalar_ladder", k, cpu)

    def _run_fmul_p192(self, k: int = 6) -> KernelResult:
        """Composed field multiply: os_mul then red_p192, one image."""
        from repro.kernels import composed

        a = _RNG.getrandbits(192)
        b = _RNG.getrandbits(192)
        cpu, entry = self._build_cpu(composed.gen_fmul_p192(),
                                     "fmul_p192", False, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF, b=B_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, 6))
        cpu.mem.write_ram_words(RAM_BASE + B_OFF, from_int(b, 6))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 6))
        assert got == (a * b) % NIST_PRIMES[192], "fmul_p192 mismatch"
        return self._result("fmul_p192", 6, cpu)

    def _run_fmul_b163(self, k: int = 6) -> KernelResult:
        """Composed field multiply: comb_mul then red_b163, one image."""
        from repro.kernels import composed

        a = _RNG.getrandbits(163)
        b = _RNG.getrandbits(163)
        cpu, entry = self._build_cpu(composed.gen_fmul_b163(),
                                     "fmul_b163", False, False)
        self._set_ptr_args(cpu, dst=DST_OFF, a=A_OFF, b=B_OFF)
        cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, 6))
        cpu.mem.write_ram_words(RAM_BASE + B_OFF, from_int(b, 6))
        self._launch(cpu, entry)
        got = to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 6))
        assert got == reduce_binary(_poly_mul(a, b), 163), \
            "fmul_b163 mismatch"
        return self._result("fmul_b163", 6, cpu)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _set_ptr_args(cpu: Pete, dst: int | None = None,
                      a: int | None = None, b: int | None = None,
                      table: int | None = None) -> None:
        if dst is not None:
            cpu.set_reg("a0", RAM_BASE + dst)
        if a is not None:
            cpu.set_reg("a1", RAM_BASE + a)
        if b is not None:
            cpu.set_reg("a2", RAM_BASE + b)
        if table is not None:
            cpu.set_reg("a3", RAM_BASE + table)


@lru_cache(maxsize=1)
def shared_runner() -> KernelRunner:
    """Process-wide runner so kernel measurements are made once."""
    return KernelRunner()
