"""Pete's cycle-level timing core (paper Sections 2.2 and 5.1).

The simulator executes instructions functionally, in program order, while
charging cycles exactly as the five-stage in-order pipeline would:

* one cycle per instruction in the ideal case (IPC = 1);
* a one-cycle interlock when an instruction consumes the result of the
  immediately preceding load (the classic load-use hazard -- all other RAW
  hazards are covered by forwarding, Fig. 2.4);
* branch delay slots are architectural (MIPS): the instruction after a
  branch/jump always executes.  A 2-bit dynamic predictor (initialized
  backward-taken / forward-not-taken) is consulted per branch; a
  misprediction flushes the speculatively fetched instruction, one cycle;
* ``jr``/``jalr`` pay one cycle for the register-indirect target;
* the multiply/divide unit occupies its datapath for its full latency;
  instructions that need the unit (including MFLO/MFHI and the accumulator
  extensions) interlock until it drains;
* instruction fetch goes to single-cycle ROM (no penalty, one ROM word
  read per instruction) or through the instruction cache (miss penalty +
  ROM line read).

Coprocessor-2 instructions are forwarded to an attached coprocessor model
(Monte or Billie), which returns the number of cycles Pete must stall
(queue full / sync wait).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Protocol

from repro.pete.assembler import Assembled
from repro.pete.icache import ICache, ICacheConfig
from repro.pete.isa import Decoded, PeteISA
from repro.pete.memory import RAM_BASE, MemorySystem
from repro.pete.muldiv import MASK32, MulDivUnit
from repro.pete.stats import CoreStats
from repro.trace.events import COP2, RETIRE, STALL, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.trace.bus import TraceBus


class Halt(Exception):
    """Raised internally when a ``break`` instruction retires."""


class Coprocessor(Protocol):
    """Interface Monte and Billie implement (Section 5.4.1 / 5.5.1)."""

    def issue(self, instr: Decoded, cpu: "Pete") -> int:
        """Handle a COP2 instruction; return stall cycles for Pete."""
        ...


@dataclass
class Program:
    """A program image plus its entry point."""

    image: Assembled
    entry: str = "main"

    @property
    def entry_address(self) -> int:
        return self.image.address_of(self.entry)


def _sources(d: Decoded) -> tuple[int, ...]:
    """Registers read by an instruction (for load-use detection)."""
    m = d.mnemonic
    if m in ("sll", "srl", "sra"):
        return (d.rt,)
    if m in ("sllv", "srlv", "srav"):
        return (d.rs, d.rt)
    if m in ("add", "addu", "sub", "subu", "and", "or", "xor", "nor",
             "slt", "sltu", "beq", "bne", "mult", "multu", "div", "divu",
             "maddu", "m2addu", "addau", "mulgf2", "maddgf2"):
        return (d.rs, d.rt)
    if m in ("addi", "addiu", "slti", "sltiu", "andi", "ori", "xori",
             "blez", "bgtz", "bltz", "bgez", "jr", "jalr", "mthi", "mtlo",
             "lw", "lh", "lhu", "lb", "lbu"):
        return (d.rs,)
    if m in ("sw", "sh", "sb"):
        return (d.rs, d.rt)
    if m == "ctc2":
        return (d.rt,)
    if m.startswith("cop2") and m in ("cop2lda", "cop2ldb", "cop2ldn",
                                      "cop2st", "cop2ld"):
        return (d.rt,)
    return ()


class Pete:
    """The processor: construct, load a program, run."""

    def __init__(
        self,
        extensions: bool = False,
        binary_extensions: bool = False,
        icache: ICacheConfig | None = None,
        coprocessor: Optional[Coprocessor] = None,
        trace: bool = False,
        tracer: "TraceBus | None" = None,
    ) -> None:
        self.stats = CoreStats()
        self.mem = MemorySystem(self.stats)
        self.muldiv = MulDivUnit(extensions, binary_extensions)
        self.icache = ICache(icache, self.stats) if icache else None
        self.coprocessor = coprocessor
        self.regs = [0] * 32
        self.pc = 0
        self.cycle = 0
        self._decoded: dict[int, Decoded] = {}
        self._predictor: dict[int, int] = {}
        self._last_load_reg: int | None = None
        #: when enabled, every retired instruction appends
        #: (cycle, pc, disassembly) -- the Verilator-style waveform
        #: substitute used for debugging generated kernels
        self.trace_enabled = trace
        self.trace_log: list[tuple[int, int, str]] = []
        #: structured observability: a TraceBus (or None, the zero-cost
        #: default) receiving typed events from every component
        self.tracer = tracer
        self.mem.tracer = tracer
        # weak, so a dropped core is freed at once rather than by the
        # cycle collector (batch preparation churns through many cores)
        self.mem.clock = weakref.proxy(self)
        self.muldiv.tracer = tracer
        if self.icache is not None:
            self.icache.tracer = tracer
        #: the last program image loaded (symbol table for profilers)
        self.program: Assembled | None = None
        #: delay-slot bookkeeping of the stepping API
        #: (``begin``/``step_instruction``)
        self._delay_target: int | None = None
        self._in_delay_slot = False

    # ------------------------------------------------------------------
    # Program loading / register access
    # ------------------------------------------------------------------

    def load(self, program: Assembled) -> None:
        data = b"".join(w.to_bytes(4, "little") for w in program.words)
        self.mem.write_rom(program.base, data)
        self._decoded.clear()
        self.program = program

    def attach_tracer(self, tracer: "TraceBus | None") -> None:
        """Attach (or, with ``None``, detach) a trace bus mid-session.

        Every component sees the new bus immediately, so a running core
        emits per-instruction events from its next instruction on.
        """
        self.tracer = tracer
        self.mem.tracer = tracer
        self.muldiv.tracer = tracer
        if self.icache is not None:
            self.icache.tracer = tracer

    def clone(self) -> "Pete":
        """An independent copy of this core's full architectural state.

        Used by the lock-step differential harness
        (:mod:`repro.pete.diffexec`) to give every lane of a lane-engine
        batch its own reference core.  Tracers are not carried over
        (attach one with :meth:`attach_tracer`), and coprocessors hold
        external state the core cannot copy.
        """
        if self.coprocessor is not None:
            raise ValueError("cannot clone a core with a coprocessor "
                             "attached")
        other = Pete(
            extensions=self.muldiv.extensions,
            binary_extensions=self.muldiv.binary_extensions,
            icache=self.icache.config if self.icache else None,
            trace=self.trace_enabled,
        )
        other.mem.rom[:] = self.mem.rom
        other.mem.ram[:] = self.mem.ram
        other.regs[:] = self.regs
        other.pc = self.pc
        other.cycle = self.cycle
        for f_name, value in self.stats.as_dict().items():
            setattr(other.stats, f_name, value)
        other.muldiv.acc = self.muldiv.acc
        other.muldiv.busy_until = self.muldiv.busy_until
        other.muldiv.issues = self.muldiv.issues
        other._predictor = dict(self._predictor)
        other._last_load_reg = self._last_load_reg
        if self.icache is not None:
            other.icache.tags = list(self.icache.tags)
            other.icache._pf_tag = self.icache._pf_tag
        other.program = self.program
        return other

    def set_reg(self, name_or_idx, value: int) -> None:
        idx = name_or_idx
        if isinstance(name_or_idx, str):
            from repro.pete.isa import REGISTERS

            idx = REGISTERS[name_or_idx.lstrip("$")]
        if idx:
            self.regs[idx] = value & MASK32

    def get_reg(self, name_or_idx) -> int:
        idx = name_or_idx
        if isinstance(name_or_idx, str):
            from repro.pete.isa import REGISTERS

            idx = REGISTERS[name_or_idx.lstrip("$")]
        return self.regs[idx]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def begin(self, entry: int) -> None:
        """Reset execution state to start at ``entry``.

        ``run`` calls this internally; the stepping API
        (:meth:`step_instruction`) and the lock-step harness in
        :mod:`repro.pete.diffexec` call it directly.
        """
        self.pc = entry
        self.regs[29] = RAM_BASE + self.mem.ram_size - 16  # $sp
        self._last_load_reg = None
        self._pending_target = None
        self._delay_target = None
        self._in_delay_slot = False

    def step_instruction(self) -> bool:
        """Execute one instruction, including delay-slot bookkeeping;
        returns ``False`` once a ``break`` retires (the core has
        halted)."""
        try:
            self._step()
        except Halt:
            return False
        if self._in_delay_slot:
            assert self._delay_target is not None
            self.pc = self._delay_target
            self._delay_target = None
            self._in_delay_slot = False
        elif self._pending_target is not None:
            self._delay_target = self._pending_target
            self._pending_target = None
            self._in_delay_slot = True
        return True

    def run(self, entry: int, max_cycles: int = 50_000_000) -> CoreStats:
        """Run from ``entry`` until a ``break`` retires, one
        :meth:`step_instruction` at a time; raises ``RuntimeError``
        once ``max_cycles`` pass without a halt (checked after every
        instruction)."""
        self.begin(entry)
        step = self.step_instruction
        while self.cycle < max_cycles:
            if not step():
                return self.stats
        raise RuntimeError(f"program did not halt within {max_cycles} cycles")

    _pending_target: int | None = None

    def _fetch(self) -> Decoded:
        if self.icache is not None:
            penalty = self.icache.access(self.pc, now=self.cycle)
            if penalty:
                self.cycle += penalty
                self.stats.stall_cycles += penalty
                if self.tracer is not None:
                    self.tracer.emit(TraceEvent(
                        STALL, self.cycle - penalty, penalty, self.pc,
                        "pete", "icache_miss"))
            word = self.mem.peek_word(self.pc)
        else:
            word = self.mem.fetch_word(self.pc)
        d = self._decoded.get(self.pc)
        if d is None or d.word != word:
            d = PeteISA.decode(word)
            self._decoded[self.pc] = d
        return d

    def _wait_muldiv(self) -> None:
        """Interlock until the multiply/divide unit drains."""
        if self.muldiv.busy_until > self.cycle:
            wait = self.muldiv.busy_until - self.cycle
            self.cycle += wait
            self.stats.stall_cycles += wait
            self.stats.mult_stall_cycles += wait
            if self.tracer is not None:
                self.tracer.emit(TraceEvent(
                    STALL, self.cycle - wait, wait, self.pc, "pete",
                    "muldiv"))

    def _predict(self, pc: int, backward: bool) -> bool:
        state = self._predictor.get(pc)
        if state is None:
            state = 2 if backward else 1  # BTFN initialization
            self._predictor[pc] = state
        return state >= 2

    def _train(self, pc: int, taken: bool) -> None:
        state = self._predictor[pc]
        state = min(3, state + 1) if taken else max(0, state - 1)
        self._predictor[pc] = state

    def _branch(self, d: Decoded, taken: bool) -> None:
        self.stats.branches += 1
        target = self.pc + 4 + 4 * d.imm
        predicted = self._predict(self.pc, d.imm < 0)
        if predicted != taken:
            self.stats.branch_mispredicts += 1
            self.cycle += 1
            self.stats.stall_cycles += 1
            if self.tracer is not None:
                self.tracer.emit(TraceEvent(
                    STALL, self.cycle - 1, 1, self.pc, "pete",
                    "branch_mispredict"))
        self._train(self.pc, taken)
        if taken:
            self._pending_target = target

    def _step(self) -> None:
        step_start = self.cycle
        d = self._fetch()
        self.stats.instructions += 1
        if self.trace_enabled:
            from repro.pete.disassembler import disassemble_decoded

            self.trace_log.append(
                (self.cycle, self.pc, disassemble_decoded(d, self.pc)))

        # load-use interlock
        if self._last_load_reg is not None and self._last_load_reg in _sources(d):
            self.cycle += 1
            self.stats.stall_cycles += 1
            self.stats.load_use_stalls += 1
            if self.tracer is not None:
                self.tracer.emit(TraceEvent(
                    STALL, self.cycle - 1, 1, self.pc, "pete", "load_use"))
        loaded_reg: int | None = None

        regs = self.regs
        m = d.mnemonic
        pc = self.pc
        self._pending_target = None
        advance = True

        if m in ("addu", "addiu", "add", "addi"):
            if m in ("addu", "add"):
                value = regs[d.rs] + regs[d.rt]
                dest = d.rd
            else:
                value = regs[d.rs] + d.imm
                dest = d.rt
            if dest:
                regs[dest] = value & MASK32
        elif m == "lw":
            value = self.mem.load((regs[d.rs] + d.imm) & MASK32, 4)
            if d.rt:
                regs[d.rt] = value
            loaded_reg = d.rt
        elif m == "sw":
            self.mem.store((regs[d.rs] + d.imm) & MASK32, regs[d.rt], 4)
        elif m in ("subu", "sub"):
            if d.rd:
                regs[d.rd] = (regs[d.rs] - regs[d.rt]) & MASK32
        elif m == "and":
            if d.rd:
                regs[d.rd] = regs[d.rs] & regs[d.rt]
        elif m == "or":
            if d.rd:
                regs[d.rd] = regs[d.rs] | regs[d.rt]
        elif m == "xor":
            if d.rd:
                regs[d.rd] = regs[d.rs] ^ regs[d.rt]
        elif m == "nor":
            if d.rd:
                regs[d.rd] = ~(regs[d.rs] | regs[d.rt]) & MASK32
        elif m == "slt":
            if d.rd:
                regs[d.rd] = int(_s32(regs[d.rs]) < _s32(regs[d.rt]))
        elif m == "sltu":
            if d.rd:
                regs[d.rd] = int(regs[d.rs] < regs[d.rt])
        elif m == "slti":
            if d.rt:
                regs[d.rt] = int(_s32(regs[d.rs]) < d.imm)
        elif m == "sltiu":
            if d.rt:
                regs[d.rt] = int(regs[d.rs] < (d.imm & MASK32))
        elif m == "andi":
            if d.rt:
                regs[d.rt] = regs[d.rs] & d.imm
        elif m == "ori":
            if d.rt:
                regs[d.rt] = regs[d.rs] | d.imm
        elif m == "xori":
            if d.rt:
                regs[d.rt] = regs[d.rs] ^ d.imm
        elif m == "lui":
            if d.rt:
                regs[d.rt] = (d.imm << 16) & MASK32
        elif m == "sll":
            if d.rd:
                regs[d.rd] = (regs[d.rt] << d.shamt) & MASK32
        elif m == "srl":
            if d.rd:
                regs[d.rd] = regs[d.rt] >> d.shamt
        elif m == "sra":
            if d.rd:
                regs[d.rd] = (_s32(regs[d.rt]) >> d.shamt) & MASK32
        elif m == "sllv":
            if d.rd:
                regs[d.rd] = (regs[d.rt] << (regs[d.rs] & 31)) & MASK32
        elif m == "srlv":
            if d.rd:
                regs[d.rd] = regs[d.rt] >> (regs[d.rs] & 31)
        elif m == "srav":
            if d.rd:
                regs[d.rd] = (_s32(regs[d.rt]) >> (regs[d.rs] & 31)) & MASK32
        elif m in ("lh", "lhu", "lb", "lbu"):
            size = 2 if m.startswith("lh") else 1
            value = self.mem.load((regs[d.rs] + d.imm) & MASK32, size,
                                  signed=not m.endswith("u"))
            if d.rt:
                regs[d.rt] = value & MASK32
            loaded_reg = d.rt
        elif m in ("sh", "sb"):
            size = 2 if m == "sh" else 1
            self.mem.store((regs[d.rs] + d.imm) & MASK32, regs[d.rt], size)
        elif m == "beq":
            self._branch(d, regs[d.rs] == regs[d.rt])
        elif m == "bne":
            self._branch(d, regs[d.rs] != regs[d.rt])
        elif m == "blez":
            self._branch(d, _s32(regs[d.rs]) <= 0)
        elif m == "bgtz":
            self._branch(d, _s32(regs[d.rs]) > 0)
        elif m == "bltz":
            self._branch(d, _s32(regs[d.rs]) < 0)
        elif m == "bgez":
            self._branch(d, _s32(regs[d.rs]) >= 0)
        elif m == "j":
            self._pending_target = (pc & 0xF0000000) | (d.target << 2)
        elif m == "jal":
            regs[31] = (pc + 8) & MASK32
            self._pending_target = (pc & 0xF0000000) | (d.target << 2)
        elif m == "jr":
            self._pending_target = regs[d.rs]
            self.cycle += 1  # register-indirect target resolves in EX
            self.stats.stall_cycles += 1
            if self.tracer is not None:
                self.tracer.emit(TraceEvent(
                    STALL, self.cycle - 1, 1, pc, "pete", "jr_target"))
        elif m == "jalr":
            if d.rd:
                regs[d.rd] = (pc + 8) & MASK32
            self._pending_target = regs[d.rs]
            self.cycle += 1
            self.stats.stall_cycles += 1
            if self.tracer is not None:
                self.tracer.emit(TraceEvent(
                    STALL, self.cycle - 1, 1, pc, "pete", "jr_target"))
        elif m in ("mult", "multu"):
            self._wait_muldiv()
            self.muldiv.mult(self.cycle, regs[d.rs], regs[d.rt],
                             signed=(m == "mult"))
            self.stats.mult_issues += 1
        elif m in ("div", "divu"):
            self._wait_muldiv()
            self.muldiv.div(self.cycle, regs[d.rs], regs[d.rt],
                            signed=(m == "div"))
            self.stats.div_issues += 1
        elif m == "mflo":
            self._wait_muldiv()
            if d.rd:
                regs[d.rd] = self.muldiv.lo
        elif m == "mfhi":
            self._wait_muldiv()
            if d.rd:
                regs[d.rd] = self.muldiv.hi
        elif m == "mtlo":
            self._wait_muldiv()
            self.muldiv.set_lo(regs[d.rs])
        elif m == "mthi":
            self._wait_muldiv()
            self.muldiv.set_hi(regs[d.rs])
        elif m == "maddu":
            self._wait_muldiv()
            self.muldiv.maddu(self.cycle, regs[d.rs], regs[d.rt])
            self.stats.mult_issues += 1
        elif m == "m2addu":
            self._wait_muldiv()
            self.muldiv.m2addu(self.cycle, regs[d.rs], regs[d.rt])
            self.stats.mult_issues += 1
        elif m == "addau":
            self._wait_muldiv()
            self.muldiv.addau(self.cycle, regs[d.rs], regs[d.rt])
        elif m == "sha":
            self._wait_muldiv()
            self.muldiv.sha(self.cycle)
        elif m == "mulgf2":
            self._wait_muldiv()
            self.muldiv.mulgf2(self.cycle, regs[d.rs], regs[d.rt])
            self.stats.mult_issues += 1
        elif m == "maddgf2":
            self._wait_muldiv()
            self.muldiv.maddgf2(self.cycle, regs[d.rs], regs[d.rt])
            self.stats.mult_issues += 1
        elif m == "break":
            if self.tracer is not None:
                # the halt retires (it fetched and counted) but adds no
                # datapath cycle: duration covers only its stalls
                self.tracer.emit(TraceEvent(
                    RETIRE, step_start, self.cycle - step_start, pc,
                    "pete", m, -1))
            raise Halt()
        elif m == "syscall":
            pass  # treated as a no-op in the bare-metal environment
        elif m == "ctc2" or m.startswith("cop2"):
            if self.coprocessor is None:
                raise RuntimeError(f"{m} with no coprocessor attached")
            self.stats.cop2_issues += 1
            if self.tracer is not None:
                self.tracer.emit(TraceEvent(
                    COP2, self.cycle, 0, pc, "pete", m))
            stall = self.coprocessor.issue(d, self)
            if stall:
                self.cycle += stall
                self.stats.stall_cycles += stall
                if self.tracer is not None:
                    self.tracer.emit(TraceEvent(
                        STALL, self.cycle - stall, stall, pc, "pete",
                        "cop2"))
        else:  # pragma: no cover - decode guarantees coverage
            raise RuntimeError(f"unimplemented mnemonic {m}")

        self._last_load_reg = loaded_reg if loaded_reg else None
        self.cycle += 1
        self.stats.cycles = self.cycle
        if self.tracer is not None:
            target = self._pending_target
            self.tracer.emit(TraceEvent(
                RETIRE, step_start, self.cycle - step_start, pc, "pete",
                m, -1 if target is None else target))
        if advance:
            self.pc += 4


def _s32(value: int) -> int:
    return value - (1 << 32) if value & 0x8000_0000 else value
