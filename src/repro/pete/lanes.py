"""Lane-parallel batched execution of independent Pete instances.

The :class:`LaneEngine` runs N independent copies of one program
lock-step: the architectural state of every instance lives in numpy
arrays with one *lane* per instance (register file ``(32, N)``, RAM
``(N, ram_size)``, per-lane cycle/stat/MulDiv vectors), and straight-
line runs of compilable instructions — the blocks the front end
(:mod:`repro.pete.blocks`) discovers — execute as a single vectorized
closure per block, amortizing dispatch across the whole batch.  The
decoded instructions and pc -> closure maps belong to the program
image, so every engine and bridge over one ROM shares them and a new
batch over a known program compiles nothing.

Control flow is where lanes can disagree.  Branches are evaluated
densely; when every active lane agrees the group follows the common
target (including per-lane 2-bit BTFN predictor updates, folded with
``np.where``).  When lanes *diverge* — different branch outcomes, or
``jr`` targets that differ — the majority keeps vector execution and
the minority is **demoted**: its lane state is copied into a scalar
:class:`~repro.pete.cpu.Pete` bridge which advances on the reference
interpreter (:meth:`~repro.pete.cpu.Pete.step_instruction`) until its
pc re-converges with the group, at which point the lane **rejoins**
the arrays bit-identically.  A lane that halts while demoted keeps its
bridge as the source of truth; a group halt freezes the arrays.  The
only masked dense operation is the RAM store (loads gather garbage for
inactive lanes harmlessly; stores must not clobber demoted/halted
lanes' memory).

The engine is intentionally restricted to the configurations the
kernel harness actually builds: no i-cache, no coprocessor, no tracer.
Everything else — MulDiv latencies and the 96-bit accumulator ops,
load-use interlocks, branch/jr stalls, architectural delay slots —
matches the reference interpreter cycle-for-cycle and bit-for-bit,
which ``python -m repro.pete.diffexec`` gates per lane at every unit
boundary.

Lanes only pay off in wide batches (the crossover against per-core
:meth:`~repro.pete.cpu.Pete.run` lies between 8 and 16 lanes), so the
signing service's worker (:mod:`repro.serve.worker`) is the engine's
one production route; the :mod:`repro.pete` package does not import
it.  numpy is an optional dependency: import of this module always
succeeds; constructing an engine without numpy raises a clear error
(see :func:`require_numpy` / :data:`HAVE_NUMPY`).
"""

from __future__ import annotations

from typing import Callable, Sequence

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy is an optional dep
    np = None  # type: ignore[assignment]

from repro import obs
from repro.pete.blocks import (
    COMPILABLE,
    MAX_BLOCK_LEN,
    MULDIV,
    BoundedMemo,
    close_blocks,
    discover,
    timing,
)
from repro.pete.cpu import Pete, _sources
from repro.pete.isa import Decoded, PeteISA
from repro.pete.memory import RAM_BASE
from repro.pete.muldiv import (
    ACC_ADD_LATENCY,
    DIV_LATENCY,
    MASK32,
    MULT_LATENCY,
)
from repro.pete.stats import CoreStats

HAVE_NUMPY = np is not None

#: Scalar-stepped instructions per demoted lane per engine unit.
#: Small enough that diffexec's per-unit boundary check stays fine
#: grained; large enough that a long divergent excursion is not
#: dominated by rejoin polling.
FALLBACK_BURST = 64

_STAT_FIELDS = tuple(CoreStats().as_dict().keys())

#: Content-addressed lane code memo: (entry pc, instruction words) ->
#: closure, shared across programs.
_LANE_CODE_CACHE = BoundedMemo(4096)

#: Per-program-image maps, keyed by the ROM bytes: (pc -> Decoded,
#: pc -> block entry, pc -> delay-slot closure).  Every engine and
#: bridge over one ROM shares them; closures only touch the engine
#: they are called with.
_PROGRAM_MAPS = BoundedMemo(64)


def require_numpy() -> None:
    if np is None:
        raise RuntimeError(
            "repro.pete.lanes requires numpy; install it or run each "
            "core on its own with Pete.run instead"
        )


# ---------------------------------------------------------------------------
# Lane block compiler
# ---------------------------------------------------------------------------

_BRANCHES = frozenset(("beq", "bne", "blez", "bgtz", "bltz", "bgez"))


class _LaneCompiler:
    """Compile a straight-line run of COMPILABLE instructions into one
    vectorized closure ``fn(eng)`` operating on dense lane arrays.

    Folds the static timing of :func:`repro.pete.blocks.timing` —
    static cycle/stall/fetch folding, dynamic entry load-use and MulDiv
    waits — with every register a row of ``eng.regs`` and every stat a
    per-lane vector.  All writes are dense (inactive lanes hold
    garbage, see module docstring); memory traffic goes through the
    engine's masked helpers.
    """

    def __init__(self, decs: Sequence[Decoded], entry_pc: int) -> None:
        self.decs = list(decs)
        self.entry_pc = entry_pc
        self.timing = timing(self.decs)
        self.body: list[str] = []
        self.ns: dict[str, object] = {"np": np}
        self.pending = 0          # statically folded cycles not yet flushed
        self.used_u: set[int] = set()
        self.used_s: set[int] = set()

    # -- emission helpers --------------------------------------------------

    def emit(self, line: str) -> None:
        self.body.append("    " + line)

    def const(self, value: int) -> str:
        name = f"_k{value & MASK32:08x}"
        if name not in self.ns:
            self.ns[name] = np.uint32(value & MASK32)
        return name

    def u(self, reg: int) -> str:
        self.used_u.add(reg)
        return f"r{reg}"

    def s(self, reg: int) -> str:
        self.used_s.add(reg)
        return f"s{reg}"

    def flush(self) -> None:
        if self.pending:
            self.emit(f"np.add(cyc, {self.pending}, out=cyc)")
            self.pending = 0

    def addr(self, d: Decoded) -> str:
        if d.imm:
            return f"({self.u(d.rs)} + {self.const(d.imm)})"
        return self.u(d.rs)

    def wait_muldiv(self) -> None:
        """Stall until the MulDiv unit drains (dynamic, per lane)."""
        self.flush()
        self.emit("_w = np.maximum(_mdb - cyc, 0)")
        self.emit("np.add(cyc, _w, out=cyc)")
        self.emit("np.add(_sst, _w, out=_sst)")
        self.emit("np.add(_sms, _w, out=_sms)")

    # -- per-instruction codegen ------------------------------------------

    def gen(self, d: Decoded) -> None:  # noqa: C901 - mirrors the ISA
        m = d.mnemonic
        e, u, s, K = self.emit, self.u, self.s, self.const
        if m in ("addu", "add"):
            if d.rd:
                e(f"np.add({u(d.rs)}, {u(d.rt)}, out={u(d.rd)})")
        elif m in ("addiu", "addi"):
            if d.rt:
                if d.imm:
                    e(f"np.add({u(d.rs)}, {K(d.imm)}, out={u(d.rt)})")
                else:
                    e(f"np.copyto({u(d.rt)}, {u(d.rs)})")
        elif m == "lw":
            e(f"_v = eng._lw({self.addr(d)})")
            if d.rt:
                e(f"{u(d.rt)}[:] = _v")
        elif m == "sw":
            e(f"eng._sw({self.addr(d)}, {u(d.rt)})")
        elif m in ("subu", "sub"):
            if d.rd:
                e(f"np.subtract({u(d.rs)}, {u(d.rt)}, out={u(d.rd)})")
        elif m == "and":
            if d.rd:
                e(f"np.bitwise_and({u(d.rs)}, {u(d.rt)}, out={u(d.rd)})")
        elif m == "or":
            if d.rd:
                e(f"np.bitwise_or({u(d.rs)}, {u(d.rt)}, out={u(d.rd)})")
        elif m == "xor":
            if d.rd:
                e(f"np.bitwise_xor({u(d.rs)}, {u(d.rt)}, out={u(d.rd)})")
        elif m == "nor":
            if d.rd:
                e(f"np.bitwise_or({u(d.rs)}, {u(d.rt)}, out={u(d.rd)})")
                e(f"np.invert({u(d.rd)}, out={u(d.rd)})")
        elif m == "slt":
            if d.rd:
                e(f"{u(d.rd)}[:] = {s(d.rs)} < {s(d.rt)}")
        elif m == "sltu":
            if d.rd:
                e(f"{u(d.rd)}[:] = {u(d.rs)} < {u(d.rt)}")
        elif m == "slti":
            if d.rt:
                e(f"{u(d.rt)}[:] = {s(d.rs)} < {d.imm}")
        elif m == "sltiu":
            if d.rt:
                e(f"{u(d.rt)}[:] = {u(d.rs)} < {K(d.imm)}")
        elif m == "andi":
            if d.rt:
                e(f"np.bitwise_and({u(d.rs)}, {K(d.imm)}, out={u(d.rt)})")
        elif m == "ori":
            if d.rt:
                if d.imm:
                    e(f"np.bitwise_or({u(d.rs)}, {K(d.imm)}, out={u(d.rt)})")
                else:
                    e(f"np.copyto({u(d.rt)}, {u(d.rs)})")
        elif m == "xori":
            if d.rt:
                e(f"np.bitwise_xor({u(d.rs)}, {K(d.imm)}, out={u(d.rt)})")
        elif m == "lui":
            if d.rt:
                e(f"{u(d.rt)}[:] = {K(d.imm << 16)}")
        elif m == "sll":
            if d.rd:
                if d.shamt:
                    e(f"np.left_shift({u(d.rt)}, {d.shamt}, out={u(d.rd)})")
                else:
                    e(f"np.copyto({u(d.rd)}, {u(d.rt)})")
        elif m == "srl":
            if d.rd:
                if d.shamt:
                    e(f"np.right_shift({u(d.rt)}, {d.shamt}, out={u(d.rd)})")
                else:
                    e(f"np.copyto({u(d.rd)}, {u(d.rt)})")
        elif m == "sra":
            if d.rd:
                if d.shamt:
                    e(f"np.right_shift({s(d.rt)}, {d.shamt}, out={s(d.rd)})")
                else:
                    e(f"np.copyto({u(d.rd)}, {u(d.rt)})")
        elif m == "sllv":
            if d.rd:
                e(f"_sh = np.bitwise_and({u(d.rs)}, 31)")
                e(f"np.left_shift({u(d.rt)}, _sh, out={u(d.rd)})")
        elif m == "srlv":
            if d.rd:
                e(f"_sh = np.bitwise_and({u(d.rs)}, 31)")
                e(f"np.right_shift({u(d.rt)}, _sh, out={u(d.rd)})")
        elif m == "srav":
            if d.rd:
                e(f"_sh = np.bitwise_and({u(d.rs)}, 31).astype(np.int32)")
                e(f"np.right_shift({s(d.rt)}, _sh, out={s(d.rd)})")
        elif m in ("lh", "lhu"):
            e(f"_v = eng._lh({self.addr(d)}, {m == 'lh'})")
            if d.rt:
                e(f"{u(d.rt)}[:] = _v")
        elif m in ("lb", "lbu"):
            e(f"_v = eng._lb({self.addr(d)}, {m == 'lb'})")
            if d.rt:
                e(f"{u(d.rt)}[:] = _v")
        elif m == "sh":
            e(f"eng._sh2({self.addr(d)}, {u(d.rt)})")
        elif m == "sb":
            e(f"eng._sb({self.addr(d)}, {u(d.rt)})")
        elif m == "syscall":
            pass
        elif m in MULDIV:
            self.wait_muldiv()
            if m == "mult":
                e(f"eng._mult_s(cyc, {s(d.rs)}, {s(d.rt)})")
            elif m == "multu":
                e(f"eng._mult_u(cyc, {u(d.rs)}, {u(d.rt)})")
            elif m == "div":
                e(f"eng._div(cyc, {s(d.rs)}, {s(d.rt)}, True)")
            elif m == "divu":
                e(f"eng._div(cyc, {u(d.rs)}, {u(d.rt)}, False)")
            elif m == "mflo":
                if d.rd:
                    e(f"{u(d.rd)}[:] = eng.md_lo")
            elif m == "mfhi":
                if d.rd:
                    e(f"{u(d.rd)}[:] = eng.md_lo >> _u64x32")
                    self.ns["_u64x32"] = np.uint64(32)
            elif m == "mtlo":
                e(f"eng._set_lo({u(d.rs)})")
            elif m == "mthi":
                e(f"eng._set_hi({u(d.rs)})")
            elif m == "maddu":
                e(f"eng._maddu(cyc, {u(d.rs)}, {u(d.rt)})")
            elif m == "m2addu":
                e(f"eng._m2addu(cyc, {u(d.rs)}, {u(d.rt)})")
            elif m == "addau":
                e(f"eng._addau(cyc, {u(d.rs)}, {u(d.rt)})")
            elif m == "sha":
                e("eng._sha(cyc)")
            elif m == "mulgf2":
                e(f"eng._mulgf2(cyc, {u(d.rs)}, {u(d.rt)})")
            elif m == "maddgf2":
                e(f"eng._maddgf2(cyc, {u(d.rs)}, {u(d.rt)})")
            else:  # pragma: no cover - MULDIV is closed
                raise ValueError(f"unhandled muldiv op {m!r}")
        else:  # pragma: no cover - COMPILABLE is closed
            raise ValueError(f"lane compiler cannot handle {m!r}")

    # -- whole-block assembly ---------------------------------------------

    def source(self) -> str:
        decs, t = self.decs, self.timing
        n = len(decs)

        # Entry load-use hazard: dynamic, depends on the latch left by
        # the previous unit.  Interior hazards are static.
        if t.entry_sources:
            expr = " | ".join(f"(_llr == {r})"
                              for r in sorted(t.entry_sources))
            self.emit(f"_m = {expr}")
            self.emit("np.add(cyc, _m, out=cyc)")
            self.emit("np.add(_sst, _m, out=_sst)")
            self.emit("np.add(_sls, _m, out=_sls)")

        for d, stall in zip(decs, t.stall_before):
            if stall:
                self.pending += 1
            self.gen(d)
            self.pending += 1

        self.flush()
        st = []
        st.append("    np.copyto(_scy, cyc)")
        st.append(f"    np.add(_sin, {n}, out=_sin)")
        if t.static_stalls:
            st.append(f"    np.add(_sst, {t.static_stalls}, out=_sst)")
            st.append(f"    np.add(_sls, {t.static_stalls}, out=_sls)")
        if t.mult_issues:
            st.append(f"    np.add(_smi, {t.mult_issues}, out=_smi)")
        if t.div_issues:
            st.append(f"    np.add(_sdi, {t.div_issues}, out=_sdi)")
        st.append(f"    np.add(_srw, {n}, out=_srw)")
        latch = -1 if t.exit_load is None else t.exit_load
        st.append(f"    eng.llr.fill({latch})")
        st.append(f"    eng.pc = {self.entry_pc + 4 * n:#x}")

        binds = [
            "    regs = eng.regs",
            "    cyc = eng.cycle",
            "    _scy = eng.stats['cycles']",
            "    _sin = eng.stats['instructions']",
            "    _srw = eng.stats['rom_word_reads']",
        ]
        uses_luse = bool(t.entry_sources or t.static_stalls)
        if self.used_s:
            binds.append("    regs32 = eng.regs_i32")
        if uses_luse or t.uses_muldiv:
            binds.append("    _sst = eng.stats['stall_cycles']")
        if uses_luse:
            binds.append("    _sls = eng.stats['load_use_stalls']")
        if t.uses_muldiv:
            binds.append("    _sms = eng.stats['mult_stall_cycles']")
            binds.append("    _mdb = eng.md_busy")
        if t.mult_issues:
            binds.append("    _smi = eng.stats['mult_issues']")
        if t.div_issues:
            binds.append("    _sdi = eng.stats['div_issues']")
        if t.entry_sources:
            binds.append("    _llr = eng.llr")
        for r in sorted(self.used_u):
            binds.append(f"    r{r} = regs[{r}]")
        for r in sorted(self.used_s):
            binds.append(f"    s{r} = regs32[{r}]")

        lines = [f"def __lane_block(eng):  # 0x{self.entry_pc:06x}"]
        lines.extend(binds)
        lines.extend(self.body)
        lines.extend(st)
        return "\n".join(lines) + "\n"


def compile_lane_block(decs: Sequence[Decoded], entry_pc: int) -> Callable:
    """Compile ``decs`` (all COMPILABLE) into a dense lane closure."""
    comp = _LaneCompiler(decs, entry_pc)
    src = comp.source()
    namespace = dict(comp.ns)
    exec(compile(src, f"<lane-block@0x{entry_pc:06x}>", "exec"), namespace)
    fn = namespace["__lane_block"]
    fn.__lane_source__ = src
    fn.__lane_len__ = len(decs)
    return fn


def _lane_code(pc: int, decs: Sequence[Decoded]) -> Callable:
    """The closure for ``decs`` entered at ``pc``, compiled once per
    process (:data:`_LANE_CODE_CACHE`)."""
    key = (pc, tuple(d.word for d in decs))
    fn = _LANE_CODE_CACHE.get(key)
    if fn is None:
        fn = _LANE_CODE_CACHE.put(key, compile_lane_block(decs, pc))
        obs.count("lane_blocks_compiled")
    else:
        obs.count("lane_code_cache_hits")
    return fn


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class LaneEngine:
    """Lock-step batched execution of N identical-program Pete cores.

    Construct from prepared reference cores (same ROM, per-lane RAM and
    registers), then :meth:`run` to completion or :meth:`step_unit` for
    lock-step differential checking.  Per-lane state is read back
    through the ``lane_*`` accessors, which transparently route to the
    scalar bridge for demoted or bridge-halted lanes.
    """

    def __init__(self, cores: Sequence[Pete]) -> None:
        require_numpy()
        if not cores:
            raise ValueError("LaneEngine needs at least one core")
        base = cores[0]
        rom = bytes(base.mem.rom)
        for c in cores:
            if c.icache is not None:
                raise ValueError("LaneEngine does not support an i-cache")
            if c.coprocessor is not None:
                raise ValueError("LaneEngine does not support a coprocessor")
            if c.tracer is not None or c.trace_enabled:
                raise ValueError("LaneEngine does not support tracing")
            if (c.muldiv.extensions != base.muldiv.extensions
                    or c.muldiv.binary_extensions
                    != base.muldiv.binary_extensions):
                raise ValueError("lanes must share MulDiv extensions")
            if len(c.mem.ram) != len(base.mem.ram):
                raise ValueError("lanes must share the RAM size")
            if c.mem.rom != base.mem.rom:
                raise ValueError("lanes must share one ROM image")

        n = len(cores)
        self.n = n
        self._ext = base.muldiv.extensions
        self._bext = base.muldiv.binary_extensions
        self.program = base.program

        self._rom_ba = bytearray(rom)
        self._rom32 = np.frombuffer(self._rom_ba, dtype="<u4")
        self._rom_size = len(self._rom_ba)
        self._ram_size = len(base.mem.ram)
        self._ram_limit = RAM_BASE + self._ram_size

        self.regs = np.zeros((32, n), dtype=np.uint32)
        self.regs_i32 = self.regs.view(np.int32)
        self.ram = np.zeros((n, self._ram_size), dtype=np.uint8)
        self.ram16 = self.ram.view("<u2")
        self.ram32 = self.ram.view("<u4")
        self.cycle = np.zeros(n, dtype=np.int64)
        self.stats = {f: np.zeros(n, dtype=np.int64) for f in _STAT_FIELDS}
        self.md_lo = np.zeros(n, dtype=np.uint64)
        self.md_hi = np.zeros(n, dtype=np.uint64)
        self.md_busy = np.zeros(n, dtype=np.int64)
        self.md_issues = np.zeros(n, dtype=np.int64)
        self.llr = np.full(n, -1, dtype=np.int64)
        self._predictors: dict[int, np.ndarray] = {}
        self._rows = np.arange(n, dtype=np.intp)

        for i, c in enumerate(cores):
            self.regs[:, i] = c.regs
            self.ram[i] = np.frombuffer(c.mem.ram, dtype=np.uint8)
            self.cycle[i] = c.cycle
            stats = c.stats.as_dict()
            for f in _STAT_FIELDS:
                self.stats[f][i] = stats[f]
            acc = c.muldiv.acc
            self.md_lo[i] = acc & 0xFFFFFFFFFFFFFFFF
            self.md_hi[i] = acc >> 64
            self.md_busy[i] = c.muldiv.busy_until
            self.md_issues[i] = c.muldiv.issues
            llr = c._last_load_reg
            self.llr[i] = -1 if llr is None else llr
            for p, state in c._predictor.items():
                self._pred_arr(p)[i] = state

        self.pc = base.pc
        maps = _PROGRAM_MAPS.get(rom)
        if maps is None:
            maps = _PROGRAM_MAPS.put(rom, ({}, {}, {}))
        #: pc -> Decoded, pc -> ("blk", closure) | ("ctl", Decoded) and
        #: pc -> delay-slot closure, shared per program image
        self._decoded, self._blocks, self._slot_fns = maps
        self._demoted: dict[int, Pete] = {}
        self._halted_bridges: dict[int, Pete] = {}
        self._max_cycles = 50_000_000
        self._bridge_pool: dict[int, Pete] = {}
        self._done = np.zeros(n, dtype=bool)
        self._done_pc: dict[int, int] = {}
        self._n_done = 0
        self._act = np.arange(n, dtype=np.intp)
        self._sel: np.ndarray | None = None

        self.divergences = 0
        self.demotions = 0
        self.rejoins = 0
        self.vector_blocks = 0
        self.fallback_instructions = 0

    # -- lifecycle ---------------------------------------------------------

    def begin(self, entry: int) -> None:
        """Point every lane at ``entry`` (mirrors ``Pete.begin``)."""
        self.pc = entry
        self.regs[29, :] = np.uint32(RAM_BASE + self._ram_size - 16)
        self.llr.fill(-1)

    def run(self, entry: int | None = None,
            max_cycles: int = 50_000_000) -> "LaneEngine":
        """Run every lane to its ``break`` (or raise on ``max_cycles``)."""
        if entry is not None:
            self.begin(entry)
        self._max_cycles = max_cycles
        units = 0
        with obs.span("lanes.run", lanes=str(self.n)):
            while self.step_unit():
                units += 1
                if (units & 63) == 0 and self._max_cycle() > max_cycles:
                    raise RuntimeError(
                        f"lane run exceeded {max_cycles} cycles"
                    )
        tel = obs.get()
        if tel is not None:
            tel.counter("lanes_runs").inc()
            tel.counter("lanes_total").inc(self.n)
            for name, value in (
                ("lane_divergences", self.divergences),
                ("lane_demotions", self.demotions),
                ("lane_rejoins", self.rejoins),
                ("lane_fallback_instructions", self.fallback_instructions),
            ):
                if value:
                    tel.counter(name).inc(value)
        return self

    def step_unit(self) -> bool:
        """Advance one engine unit: every demoted bridge gets a burst of
        scalar units (rejoining on pc re-convergence), then the vector
        group executes one block or one control instruction.
        Returns False once every lane has halted."""
        if self._demoted:
            self._advance_demoted()
        if self._act.size:
            entry = self._blocks.get(self.pc)
            if entry is None:
                entry = self._compile_at(self.pc)
            kind, payload = entry
            if kind == "blk":
                payload(self)
                self.vector_blocks += 1
            else:
                self._step_control(payload)
        return self._n_done < self.n

    def _max_cycle(self) -> int:
        worst = 0
        if self._act.size:
            worst = int(self.cycle[self._act].max())
        for b in self._demoted.values():
            worst = max(worst, b.cycle)
        return worst

    # -- decode / block discovery -----------------------------------------

    def _decode(self, pc: int) -> Decoded:
        d = self._decoded.get(pc)
        if d is None:
            if pc < 0 or pc + 4 > self._rom_size:
                raise MemoryError(f"fetch from unmapped pc 0x{pc:08x}")
            word = int.from_bytes(self._rom_ba[pc:pc + 4], "little")
            d = PeteISA.decode(word)
            self._decoded[pc] = d
        return d

    def _compile_at(self, pc: int) -> tuple:
        """Discover and compile the unit entered at ``pc`` into the
        program's shared map: a vector block, or one control
        instruction."""
        decs = discover(self._decode, pc)
        if decs:
            entry = ("blk", _lane_code(pc, decs))
        else:
            entry = ("ctl", self._decode(pc))
        self._blocks[pc] = entry
        return entry

    # -- control step ------------------------------------------------------

    def _pred_arr(self, pc: int) -> "np.ndarray":
        arr = self._predictors.get(pc)
        if arr is None:
            arr = self._predictors[pc] = np.full(self.n, -1, dtype=np.int8)
        return arr

    def _exec_slot(self, addr: int) -> None:
        """Execute the (compilable) delay-slot instruction densely.

        The closure's trailing ``eng.pc`` write is overwritten by the
        caller with the jump/branch target."""
        fn = self._slot_fns.get(addr)
        if fn is None:
            d = self._decode(addr)
            if d.mnemonic not in COMPILABLE:
                raise RuntimeError(
                    f"unsupported delay-slot instruction {d.mnemonic!r} "
                    f"at 0x{addr:06x}"
                )
            fn = self._slot_fns[addr] = _lane_code(addr, [d])
        fn(self)

    def _step_control(self, d: Decoded) -> None:  # noqa: C901
        pc = self.pc
        m = d.mnemonic
        st = self.stats
        cyc = self.cycle
        np.add(st["rom_word_reads"], 1, out=st["rom_word_reads"])
        np.add(st["instructions"], 1, out=st["instructions"])

        if m == "break":
            # Mirrors Halt raised inside dispatch: no latch update, no
            # trailing cycle, stats.cycles left stale, pc unchanged.
            lanes = [int(x) for x in self._act]
            for lane in lanes:
                self._done[lane] = True
                self._done_pc[lane] = pc
            self._n_done += len(lanes)
            self._set_active([])
            return

        srcs = tuple(r for r in _sources(d) if r)
        if srcs:
            hazard = self.llr == srcs[0]
            for r in srcs[1:]:
                np.logical_or(hazard, self.llr == r, out=hazard)
            np.add(cyc, hazard, out=cyc)
            np.add(st["stall_cycles"], hazard, out=st["stall_cycles"])
            np.add(st["load_use_stalls"], hazard,
                   out=st["load_use_stalls"])

        if m in _BRANCHES:
            self._step_branch(d)
            return

        if m in ("j", "jal"):
            if m == "jal":
                self.regs[31, :] = np.uint32((pc + 8) & MASK32)
            np.add(cyc, 1, out=cyc)
            np.copyto(st["cycles"], cyc)
            self.llr.fill(-1)
            self._exec_slot(pc + 4)
            self.pc = (pc & 0xF0000000) | (d.target << 2)
            return

        if m in ("jr", "jalr"):
            if m == "jalr" and d.rd:
                self.regs[d.rd, :] = np.uint32((pc + 8) & MASK32)
            targets = self.regs[d.rs].copy()
            # jr target stall (+1) plus the instruction's own cycle.
            np.add(cyc, 2, out=cyc)
            np.add(st["stall_cycles"], 1, out=st["stall_cycles"])
            np.copyto(st["cycles"], cyc)
            self.llr.fill(-1)
            self._exec_slot(pc + 4)
            self._retarget(targets)
            return

        raise RuntimeError(
            f"lane engine cannot execute {m!r} at 0x{pc:06x} "
            "(no coprocessor attached)"
        )

    def _step_branch(self, d: Decoded) -> None:
        pc = self.pc
        m = d.mnemonic
        st = self.stats
        cyc = self.cycle
        regs = self.regs
        if m == "beq":
            taken = regs[d.rs] == regs[d.rt]
        elif m == "bne":
            taken = regs[d.rs] != regs[d.rt]
        elif m == "blez":
            taken = self.regs_i32[d.rs] <= 0
        elif m == "bgtz":
            taken = self.regs_i32[d.rs] > 0
        elif m == "bltz":
            taken = self.regs_i32[d.rs] < 0
        else:  # bgez
            taken = self.regs_i32[d.rs] >= 0

        np.add(st["branches"], 1, out=st["branches"])
        arr = self._pred_arr(pc)
        init = np.int8(2 if d.imm < 0 else 1)
        state = np.where(arr < 0, init, arr)
        miss = (state >= 2) != taken
        np.add(cyc, miss, out=cyc)
        np.add(st["stall_cycles"], miss, out=st["stall_cycles"])
        np.add(st["branch_mispredicts"], miss,
               out=st["branch_mispredicts"])
        arr[:] = np.where(taken, np.minimum(state + 1, 3),
                          np.maximum(state - 1, 0))

        np.add(cyc, 1, out=cyc)
        np.copyto(st["cycles"], cyc)
        self.llr.fill(-1)

        sel = self._act
        taken_act = taken[sel]
        if not taken_act.any():
            # Group falls through; the delay slot is just the next unit
            # (it may even head a longer superblock).
            self.pc = pc + 4
            return

        target = (pc + 4 + 4 * d.imm) & MASK32
        self._exec_slot(pc + 4)
        if taken_act.all():
            self.pc = target
            return

        # Divergent branch: the majority keeps the vector group.
        n_taken = int(taken_act.sum())
        taken_wins = n_taken * 2 >= taken_act.size
        stay = sel[taken_act] if taken_wins else sel[~taken_act]
        leave = sel[~taken_act] if taken_wins else sel[taken_act]
        leave_pc = (pc + 8) if taken_wins else target
        self.divergences += 1
        for lane in leave:
            self._demote(int(lane), leave_pc)
        self._set_active([int(x) for x in stay])
        self.pc = target if taken_wins else pc + 8

    def _retarget(self, targets: "np.ndarray") -> None:
        """Steer the group after a jr/jalr: uniform target keeps the
        whole group; otherwise the most common target stays vector and
        the rest demote to bridges."""
        sel = self._act
        act_targets = targets[sel]
        values, counts = np.unique(act_targets, return_counts=True)
        if values.size == 1:
            self.pc = int(values[0])
            return
        self.divergences += 1
        win = values[int(counts.argmax())]
        stay = [int(x) for x in sel[act_targets == win]]
        for lane in sel[act_targets != win]:
            self._demote(int(lane), int(targets[int(lane)]))
        self._set_active(stay)
        self.pc = int(win)

    # -- demotion / rejoin -------------------------------------------------

    def _set_active(self, ids: Sequence[int]) -> None:
        self._act = np.array(sorted(ids), dtype=np.intp)
        self._sel = None if len(ids) == self.n else self._act

    def _new_bridge(self) -> Pete:
        b = Pete(extensions=self._ext, binary_extensions=self._bext)
        if len(b.mem.ram) != self._ram_size:
            raise RuntimeError("bridge RAM size mismatch")
        b.mem.rom = self._rom_ba  # shared: ROM is read-only at runtime
        b._decoded = self._decoded
        b.program = self.program
        return b

    def _demote(self, lane: int, pc: int) -> None:
        """Copy one lane out of the arrays into a scalar bridge core."""
        b = self._bridge_pool.get(lane)
        if b is None:
            b = self._bridge_pool[lane] = self._new_bridge()
        b.pc = pc
        b.cycle = int(self.cycle[lane])
        b.regs[:] = [int(x) for x in self.regs[:, lane]]
        stats = b.stats
        for f in _STAT_FIELDS:
            setattr(stats, f, int(self.stats[f][lane]))
        b.muldiv.acc = (int(self.md_lo[lane])
                        | (int(self.md_hi[lane]) << 64))
        b.muldiv.busy_until = int(self.md_busy[lane])
        b.muldiv.issues = int(self.md_issues[lane])
        llr = int(self.llr[lane])
        b._last_load_reg = llr if llr >= 0 else None
        b._predictor = {
            p: int(arr[lane])
            for p, arr in self._predictors.items() if arr[lane] >= 0
        }
        b._pending_target = None
        b._delay_target = None
        b._in_delay_slot = False
        b.mem.ram[:] = self.ram[lane].tobytes()
        self._demoted[lane] = b
        self.demotions += 1

    def _rejoin(self, lane: int, b: Pete) -> None:
        """Copy a re-converged bridge back into the dense arrays."""
        self.regs[:, lane] = b.regs
        self.cycle[lane] = b.cycle
        stats = b.stats.as_dict()
        for f in _STAT_FIELDS:
            self.stats[f][lane] = stats[f]
        acc = b.muldiv.acc
        self.md_lo[lane] = acc & 0xFFFFFFFFFFFFFFFF
        self.md_hi[lane] = acc >> 64
        self.md_busy[lane] = b.muldiv.busy_until
        self.md_issues[lane] = b.muldiv.issues
        llr = b._last_load_reg
        self.llr[lane] = -1 if llr is None else llr
        for p in set(self._predictors) | set(b._predictor):
            self._pred_arr(p)[lane] = b._predictor.get(p, -1)
        self.ram[lane] = np.frombuffer(b.mem.ram, dtype=np.uint8)
        del self._demoted[lane]
        self._set_active([int(x) for x in self._act] + [lane])
        self.rejoins += 1

    def _finalize_bridge(self, lane: int, b: Pete) -> None:
        """A lane halted while demoted: the bridge stays the source of
        truth (the dense arrays would be clobbered by the still-running
        group); only the RAM row is synced for dense readers."""
        self._done[lane] = True
        self._done_pc[lane] = b.pc
        self._n_done += 1
        self._halted_bridges[lane] = b
        del self._demoted[lane]
        self.ram[lane] = np.frombuffer(b.mem.ram, dtype=np.uint8)

    def _advance_demoted(self) -> None:
        """Advance every bridge by up to ``FALLBACK_BURST`` reference
        instructions, rejoining it where its pc meets the group's.
        Once the vector group is gone no bridge can ever rejoin, so
        each one drains to its halt instead."""
        group_pc = self.pc if self._act.size else None
        stepped = 0
        for lane in list(self._demoted):
            b = self._demoted[lane]
            before = b.stats.instructions
            while True:
                if group_pc is None:
                    if b.cycle >= self._max_cycles:
                        raise RuntimeError(
                            f"program did not halt within "
                            f"{self._max_cycles} cycles")
                elif b.stats.instructions - before >= FALLBACK_BURST:
                    break
                elif b.pc == group_pc and not b._in_delay_slot:
                    self._rejoin(lane, b)
                    break
                if not b.step_instruction():
                    self._finalize_bridge(lane, b)
                    break
            stepped += b.stats.instructions - before
        if stepped:
            self.fallback_instructions += stepped

    # -- masked memory helpers --------------------------------------------

    def _active_view(self, addr: "np.ndarray") -> "np.ndarray":
        sel = self._sel
        return addr if sel is None else addr[sel]

    def _lw(self, addr):
        a = self._active_view(addr)
        a0 = int(a[0])
        st = self.stats
        if bool((a == a0).all()):
            if a0 & 3:
                raise MemoryError(f"unaligned 4-byte access at 0x{a0:08x}")
            if RAM_BASE <= a0 <= self._ram_limit - 4:
                np.add(st["ram_reads"], 1, out=st["ram_reads"])
                return self.ram32[:, (a0 - RAM_BASE) >> 2]
            if a0 <= self._rom_size - 4:
                np.add(st["rom_word_reads"], 1, out=st["rom_word_reads"])
                return int.from_bytes(self._rom_ba[a0:a0 + 4], "little")
            raise MemoryError(f"unmapped address 0x{a0:08x}")
        if bool((a & 3).any()):
            raise MemoryError("unaligned 4-byte lane access")
        off = addr.astype(np.int64)
        if bool(((a >= RAM_BASE) & (a <= self._ram_limit - 4)).all()):
            np.add(st["ram_reads"], 1, out=st["ram_reads"])
            np.subtract(off, RAM_BASE, out=off)
            np.clip(off, 0, self._ram_size - 4, out=off)
            return self.ram32[self._rows, off >> 2]
        if bool((a <= self._rom_size - 4).all()):
            np.add(st["rom_word_reads"], 1, out=st["rom_word_reads"])
            np.clip(off, 0, self._rom_size - 4, out=off)
            return self._rom32[off >> 2]
        raise MemoryError("lane load spans memory regions")

    def _lh(self, addr, signed: bool):
        a = self._active_view(addr)
        a0 = int(a[0])
        st = self.stats
        if bool((a == a0).all()):
            if a0 & 1:
                raise MemoryError(f"unaligned 2-byte access at 0x{a0:08x}")
            if RAM_BASE <= a0 <= self._ram_limit - 2:
                np.add(st["ram_reads"], 1, out=st["ram_reads"])
                v = self.ram16[:, (a0 - RAM_BASE) >> 1]
            elif a0 <= self._rom_size - 2:
                np.add(st["rom_word_reads"], 1, out=st["rom_word_reads"])
                sv = int.from_bytes(self._rom_ba[a0:a0 + 2], "little")
                if signed and sv & 0x8000:
                    sv -= 0x10000
                return sv & MASK32
            else:
                raise MemoryError(f"unmapped address 0x{a0:08x}")
        else:
            if bool((a & 1).any()):
                raise MemoryError("unaligned 2-byte lane access")
            off = addr.astype(np.int64)
            if not bool(((a >= RAM_BASE)
                         & (a <= self._ram_limit - 2)).all()):
                raise MemoryError("lane load spans memory regions")
            np.add(st["ram_reads"], 1, out=st["ram_reads"])
            np.subtract(off, RAM_BASE, out=off)
            np.clip(off, 0, self._ram_size - 2, out=off)
            v = self.ram16[self._rows, off >> 1]
        if signed:
            return (v.astype(np.int32) ^ 0x8000) - 0x8000
        return v

    def _lb(self, addr, signed: bool):
        a = self._active_view(addr)
        a0 = int(a[0])
        st = self.stats
        if bool((a == a0).all()):
            if RAM_BASE <= a0 <= self._ram_limit - 1:
                np.add(st["ram_reads"], 1, out=st["ram_reads"])
                v = self.ram[:, a0 - RAM_BASE]
            elif a0 <= self._rom_size - 1:
                np.add(st["rom_word_reads"], 1, out=st["rom_word_reads"])
                sv = self._rom_ba[a0]
                if signed and sv & 0x80:
                    sv -= 0x100
                return sv & MASK32
            else:
                raise MemoryError(f"unmapped address 0x{a0:08x}")
        else:
            off = addr.astype(np.int64)
            if not bool(((a >= RAM_BASE)
                         & (a <= self._ram_limit - 1)).all()):
                raise MemoryError("lane load spans memory regions")
            np.add(st["ram_reads"], 1, out=st["ram_reads"])
            np.subtract(off, RAM_BASE, out=off)
            np.clip(off, 0, self._ram_size - 1, out=off)
            v = self.ram[self._rows, off]
        if signed:
            return (v.astype(np.int32) ^ 0x80) - 0x80
        return v

    def _store_check(self, a, a0: int, size: int) -> bool:
        """Validate a store's addresses; True when they are uniform."""
        if bool((a == a0).all()):
            if a0 & (size - 1):
                raise MemoryError(
                    f"unaligned {size}-byte access at 0x{a0:08x}"
                )
            if not RAM_BASE <= a0 <= self._ram_limit - size:
                raise MemoryError(f"store outside RAM at 0x{a0:08x}")
            return True
        if size > 1 and bool((a & (size - 1)).any()):
            raise MemoryError(f"unaligned {size}-byte lane access")
        if not bool(((a >= RAM_BASE)
                     & (a <= self._ram_limit - size)).all()):
            raise MemoryError("lane store outside RAM")
        return False

    def _scatter(self, view, shift: int, addr, value) -> None:
        off = addr.astype(np.int64)
        np.subtract(off, RAM_BASE, out=off)
        idx = off >> shift if shift else off
        sel = self._sel
        if sel is None:
            view[self._rows, idx] = value
        else:
            view[sel, idx[sel]] = value[sel]

    def _sw(self, addr, value) -> None:
        a = self._active_view(addr)
        a0 = int(a[0])
        uniform = self._store_check(a, a0, 4)
        st = self.stats
        np.add(st["ram_writes"], 1, out=st["ram_writes"])
        if uniform:
            col = (a0 - RAM_BASE) >> 2
            sel = self._sel
            if sel is None:
                self.ram32[:, col] = value
            else:
                self.ram32[sel, col] = value[sel]
            return
        self._scatter(self.ram32, 2, addr, value)

    def _sh2(self, addr, value) -> None:
        a = self._active_view(addr)
        a0 = int(a[0])
        uniform = self._store_check(a, a0, 2)
        st = self.stats
        np.add(st["ram_writes"], 1, out=st["ram_writes"])
        if uniform:
            col = (a0 - RAM_BASE) >> 1
            sel = self._sel
            if sel is None:
                self.ram16[:, col] = value
            else:
                self.ram16[sel, col] = value[sel]
            return
        self._scatter(self.ram16, 1, addr, value)

    def _sb(self, addr, value) -> None:
        a = self._active_view(addr)
        a0 = int(a[0])
        uniform = self._store_check(a, a0, 1)
        st = self.stats
        np.add(st["ram_writes"], 1, out=st["ram_writes"])
        if uniform:
            col = a0 - RAM_BASE
            sel = self._sel
            if sel is None:
                self.ram[:, col] = value
            else:
                self.ram[sel, col] = value[sel]
            return
        self._scatter(self.ram, 0, addr, value)

    # -- vectorized MulDiv unit -------------------------------------------

    def _md_start(self, cyc, latency: int) -> None:
        np.add(cyc, latency, out=self.md_busy)
        np.add(self.md_issues, 1, out=self.md_issues)

    def _mult_s(self, cyc, a, b) -> None:
        p = a.astype(np.int64) * b.astype(np.int64)
        self.md_lo[:] = p
        self.md_hi.fill(0)
        self._md_start(cyc, MULT_LATENCY)

    def _mult_u(self, cyc, a, b) -> None:
        self.md_lo[:] = a.astype(np.uint64) * b
        self.md_hi.fill(0)
        self._md_start(cyc, MULT_LATENCY)

    def _div(self, cyc, a, b, signed: bool) -> None:
        # Per-lane scalar loop: division is rare in the kernels and the
        # reference's `int(a / b)` float-truncation semantics must be
        # reproduced exactly.
        vals = []
        for x, y in zip(a.tolist(), b.tolist()):
            if y == 0:
                q, r = 0, x
            else:
                q = int(x / y) if signed else x // y
                r = x - q * y
            vals.append(((r & MASK32) << 32) | (q & MASK32))
        self.md_lo[:] = vals
        self.md_hi.fill(0)
        self._md_start(cyc, DIV_LATENCY)

    def _maddu(self, cyc, a, b) -> None:
        p = a.astype(np.uint64) * b
        lo = self.md_lo
        new = lo + p
        np.add(self.md_hi, new < p, out=self.md_hi)
        np.bitwise_and(self.md_hi, np.uint64(MASK32), out=self.md_hi)
        lo[:] = new
        self._md_start(cyc, MULT_LATENCY)

    def _m2addu(self, cyc, a, b) -> None:
        p = a.astype(np.uint64) * b
        c0 = p >> np.uint64(63)
        p <<= np.uint64(1)
        lo = self.md_lo
        new = lo + p
        np.add(self.md_hi, c0, out=self.md_hi)
        np.add(self.md_hi, new < p, out=self.md_hi)
        np.bitwise_and(self.md_hi, np.uint64(MASK32), out=self.md_hi)
        lo[:] = new
        self._md_start(cyc, MULT_LATENCY)

    def _addau(self, cyc, a, b) -> None:
        t = (a.astype(np.uint64) << np.uint64(32)) + b
        lo = self.md_lo
        new = lo + t
        np.add(self.md_hi, new < t, out=self.md_hi)
        np.bitwise_and(self.md_hi, np.uint64(MASK32), out=self.md_hi)
        lo[:] = new
        self._md_start(cyc, ACC_ADD_LATENCY)

    def _sha(self, cyc) -> None:
        lo = self.md_lo
        lo[:] = (lo >> np.uint64(32)) | (self.md_hi << np.uint64(32))
        self.md_hi.fill(0)
        self._md_start(cyc, ACC_ADD_LATENCY)

    def _clmul(self, a, b) -> "np.ndarray":
        a64 = a.astype(np.uint64)
        r = np.zeros(self.n, dtype=np.uint64)
        bmax = int(b.max())
        for i in range(32):
            if not bmax >> i:
                break
            bit = ((b >> np.uint32(i)) & np.uint32(1)).astype(np.uint64)
            r ^= (a64 << np.uint64(i)) * bit
        return r

    def _mulgf2(self, cyc, a, b) -> None:
        self.md_lo[:] = self._clmul(a, b)
        self.md_hi.fill(0)
        self._md_start(cyc, MULT_LATENCY)

    def _maddgf2(self, cyc, a, b) -> None:
        np.bitwise_xor(self.md_lo, self._clmul(a, b), out=self.md_lo)
        self._md_start(cyc, MULT_LATENCY)

    def _set_lo(self, v) -> None:
        lo = self.md_lo
        np.bitwise_and(lo, np.uint64(0xFFFFFFFF00000000), out=lo)
        np.bitwise_or(lo, v.astype(np.uint64), out=lo)

    def _set_hi(self, v) -> None:
        lo = self.md_lo
        np.bitwise_and(lo, np.uint64(0x00000000FFFFFFFF), out=lo)
        np.bitwise_or(lo, v.astype(np.uint64) << np.uint64(32), out=lo)

    # -- per-lane accessors ------------------------------------------------

    def lane_bridge(self, lane: int) -> Pete | None:
        """The scalar core holding this lane's truth, if any."""
        b = self._demoted.get(lane)
        return b if b is not None else self._halted_bridges.get(lane)

    def lane_done(self, lane: int) -> bool:
        return bool(self._done[lane])

    def lane_pc(self, lane: int) -> int:
        b = self.lane_bridge(lane)
        if b is not None:
            return b.pc
        if self._done[lane]:
            return self._done_pc[lane]
        return self.pc

    def lane_cycle(self, lane: int) -> int:
        b = self.lane_bridge(lane)
        return b.cycle if b is not None else int(self.cycle[lane])

    def lane_instructions(self, lane: int) -> int:
        b = self.lane_bridge(lane)
        if b is not None:
            return b.stats.instructions
        return int(self.stats["instructions"][lane])

    def lane_regs(self, lane: int) -> list[int]:
        b = self.lane_bridge(lane)
        if b is not None:
            return list(b.regs)
        return [int(x) for x in self.regs[:, lane]]

    def lane_stats(self, lane: int) -> CoreStats:
        b = self.lane_bridge(lane)
        if b is not None:
            return CoreStats(**b.stats.as_dict())
        return CoreStats(
            **{f: int(self.stats[f][lane]) for f in _STAT_FIELDS}
        )

    def lane_acc(self, lane: int) -> int:
        b = self.lane_bridge(lane)
        if b is not None:
            return b.muldiv.acc
        return int(self.md_lo[lane]) | (int(self.md_hi[lane]) << 64)

    def lane_busy_until(self, lane: int) -> int:
        b = self.lane_bridge(lane)
        return b.muldiv.busy_until if b is not None \
            else int(self.md_busy[lane])

    def lane_issues(self, lane: int) -> int:
        b = self.lane_bridge(lane)
        return b.muldiv.issues if b is not None \
            else int(self.md_issues[lane])

    def lane_load_latch(self, lane: int) -> int | None:
        b = self.lane_bridge(lane)
        if b is not None:
            return b._last_load_reg
        v = int(self.llr[lane])
        return v if v >= 0 else None

    def lane_predictor(self, lane: int) -> dict[int, int]:
        b = self.lane_bridge(lane)
        if b is not None:
            return dict(b._predictor)
        return {
            p: int(arr[lane])
            for p, arr in self._predictors.items() if arr[lane] >= 0
        }

    def lane_ram(self, lane: int) -> bytes:
        b = self.lane_bridge(lane)
        if b is not None:
            return bytes(b.mem.ram)
        return self.ram[lane].tobytes()

    def counters(self) -> dict[str, int]:
        """This engine's divergence/fallback accounting."""
        return {
            "lanes": self.n,
            "vector_blocks": self.vector_blocks,
            "divergences": self.divergences,
            "demotions": self.demotions,
            "rejoins": self.rejoins,
            "fallback_instructions": self.fallback_instructions,
        }

    def precompile(self, starts) -> int:
        """Drive the program's shared block map to closure over
        ``starts`` (see :func:`repro.pete.blocks.close_blocks`), plus
        the delay slot of every control transfer that ends a run --
        the full set of pcs this engine can ever begin a unit at.
        After closure, *data-dependent* control flow (a rarely taken
        carry branch, a divergence demotion/rejoin) can no longer
        trigger a first-time compile mid-run, which is what lets a
        serving worker promise compile-free steady state.  Returns the
        number of blocks newly compiled.
        """
        base = obs.counts()

        def close(pc: int) -> int:
            kind, payload = self._blocks.get(pc) or self._compile_at(pc)
            length = payload.__lane_len__ if kind == "blk" else 0
            slot = pc + 4 * length + 4
            if length < MAX_BLOCK_LEN and slot not in self._slot_fns:
                # the run ends at a control transfer: pre-fill its
                # delay slot's closure (the _exec_slot path)
                slot_decs = discover(self._decode, slot, limit=1)
                if slot_decs:
                    self._slot_fns[slot] = _lane_code(slot, slot_decs)
            return length

        close_blocks(starts, close)
        return obs.counts_since(base)["lane_blocks_compiled"]


# ---------------------------------------------------------------------------
# Prepared-lane pools
# ---------------------------------------------------------------------------


class LanePool:
    """A stock of prepared, ready-to-run cores keyed by kernel+config.

    Preparing a lane (assembling the program -- memoized -- then
    building a :class:`~repro.pete.cpu.Pete`, loading the image and
    writing fresh operands) is the dominant per-batch cost once the
    lane code cache is warm.  A pool lets a long-lived server pay that
    cost *between* batches: :meth:`restock` pre-prepares cores up to
    ``stock_target`` while the dispatcher is idle, and :meth:`take`
    consumes stocked cores first, preparing only the shortfall on the
    request's critical path.

    ``prepare`` is any callable with the signature of
    :meth:`repro.kernels.runner.KernelRunner.prepare_lanes` --
    ``prepare(name, k, n) -> (cores, entry)`` -- so every core carries
    distinct operands exactly as ``n`` scalar preparations would.
    Cores are consumed by execution (state mutates), so the pool never
    re-issues a taken core; the key's ``config`` component keeps stocks
    prepared under different calibrations or pricing configs apart.
    """

    def __init__(self, prepare: Callable, stock_target: int = 0) -> None:
        self._prepare = prepare
        self.stock_target = max(0, stock_target)
        self._stock: dict[tuple, list] = {}     # key -> prepared cores
        self._entries: dict[tuple, int] = {}    # key -> entry pc

    @staticmethod
    def key_for(name: str, k: int, config: str = "") -> tuple:
        return (name, k, config)

    def _fill(self, key: tuple, n: int) -> None:
        if n <= 0:
            return
        name, k, _ = key
        cores, entry = self._prepare(name, k, n)
        known = self._entries.setdefault(key, entry)
        if entry != known:  # pragma: no cover - program images are static
            raise RuntimeError(f"kernel {name!r}: unstable entry point")
        self._stock.setdefault(key, []).extend(cores)

    def take(self, name: str, k: int, n: int,
             config: str = "") -> tuple[list, int]:
        """``n`` prepared cores plus the entry pc, stock-first."""
        key = self.key_for(name, k, config)
        stock = self._stock.setdefault(key, [])
        self._fill(key, n - len(stock))
        cores, self._stock[key] = stock[:n], stock[n:]
        return cores, self._entries[key]

    def restock(self, name: str, k: int, config: str = "") -> int:
        """Top the key's stock up to ``stock_target``; returns how many
        cores were prepared."""
        key = self.key_for(name, k, config)
        shortfall = self.stock_target - len(self._stock.get(key, ()))
        self._fill(key, shortfall)
        return max(0, shortfall)

    def stocked(self, name: str, k: int, config: str = "") -> int:
        return len(self._stock.get(self.key_for(name, k, config), ()))
