"""Superblock-threaded fast path for the Pete interpreter.

The reference interpreter (:meth:`repro.pete.cpu.Pete._step`) pays full
decode-and-dispatch cost per instruction: a fetch, a decoded-cache
lookup, a ``_sources`` tuple build and a long mnemonic chain.  The
kernels this simulator exists to price are straight-line field
arithmetic with hot, predictable inner loops, so almost all of that
work is re-derivable from the instruction words alone.

This module compiles *superblocks* -- the maximal straight-line runs of
compilable instructions that the shared block front end
(:mod:`repro.pete.blocks`) discovers at run time -- into one
specialized Python closure each, and :meth:`repro.pete.cpu.Pete.run`
threads execution through them:

* register indices, immediates and shift amounts are baked in as
  constants (``regs[9] = (regs[8] + 4) & MASK32``);
* per-block cycle, instruction and stall deltas that are statically
  known (the +1 per instruction, intra-block load-use interlocks, the
  per-fetch ROM word read) are folded into single additions;
* only the genuinely dynamic costs stay dynamic: instruction-cache
  penalties, multiply/divide drain interlocks, and the load-use check
  against the instruction that ran *before* the block was entered.

The contract is exactness: a block-threaded run must leave ``CoreStats``,
the architectural state (registers, memory, Hi/Lo accumulator, branch
predictor) and therefore every derived energy number float-identical to
a reference run.  The lock-step harness in :mod:`repro.pete.diffexec`
verifies this at every block boundary.

Deopt rules: closures are only compiled and entered when no tracer is
attached and ``trace_enabled`` is off -- the run loop re-checks at every
block boundary, so attaching a :class:`~repro.trace.bus.TraceBus`
mid-run falls back to the reference interpreter and per-instruction
events keep firing with identical cycle numbers.

Invalidation: ``Pete.load`` (ROM reload) and ``Pete.flush_decoded``
invalidate the per-core block map; a configuration change (the icache
swapped in or out, ISA extension flags flipped) is caught by a
fingerprint check on every lookup.  Compiled code is also memoized in a
content-addressed module-level cache keyed by the block's instruction
words, so repeated simulations of the same kernel (e.g. the runner's
median-of-three trials) compile each block once per process.
"""

from __future__ import annotations

import time
import weakref
from typing import TYPE_CHECKING, Callable, Optional

from repro import obs
from repro.pete.blocks import (
    MIN_BLOCK_LEN,
    BoundedMemo,
    close_blocks,
    discover,
    timing,
)
from repro.pete.isa import Decoded, PeteISA
from repro.pete.muldiv import MASK32

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pete.cpu import Pete

_SIGN = 0x8000_0000

#: Content-addressed code memo shared by every Fastpath instance:
#: identical instruction words at the same entry PC compile to the same
#: closure, so re-simulating a kernel reuses the compiled blocks.
_CODE_CACHE = BoundedMemo(4096)


def note_deopt() -> None:
    """Count one deopt-to-reference event: a run that had to leave the
    fast path because a tracer attached / tracing was switched on.
    Called from :meth:`Pete.attach_tracer` and the prologue of a traced
    :meth:`Pete.run` -- never from the per-block dispatch loop."""
    obs.count("fastpath_deopt_runs")


def _s32(value: int) -> int:
    return value - (1 << 32) if value & _SIGN else value


# ---------------------------------------------------------------------------
# Block code generation
# ---------------------------------------------------------------------------


class _BlockCompiler:
    """Generates the Python source of one superblock closure."""

    def __init__(self, decs: list[Decoded], entry_pc: int,
                 icache_on: bool) -> None:
        self.decs = decs
        self.entry_pc = entry_pc
        self.icache_on = icache_on
        self.timing = timing(decs)
        self.lines: list[str] = []
        self.pending_cycles = 0      # statically-known cycle delta

    # -- emit helpers ----------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def flush_cycles(self) -> None:
        """Materialize pending static cycles before a dynamic read."""
        if self.pending_cycles:
            self.emit(f"cycle += {self.pending_cycles}")
            self.pending_cycles = 0

    def wait_muldiv(self) -> None:
        """The MulDiv drain interlock (mirrors Pete._wait_muldiv)."""
        self.flush_cycles()
        self.emit("_bu = muldiv.busy_until")
        self.emit("if _bu > cycle:")
        self.emit("    _w = _bu - cycle")
        self.emit("    cycle += _w")
        self.emit("    stall += _w")
        self.emit("    mstall += _w")

    # -- per-instruction execute code ------------------------------------

    @staticmethod
    def _addr(d: Decoded) -> str:
        if d.imm:
            return f"(regs[{d.rs}] + {d.imm}) & {MASK32}"
        return f"regs[{d.rs}]"  # register values are always masked

    def gen_exec(self, d: Decoded) -> None:
        m = d.mnemonic
        e = self.emit
        if m in ("addu", "add"):
            if d.rd:
                e(f"regs[{d.rd}] = (regs[{d.rs}] + regs[{d.rt}]) "
                  f"& {MASK32}")
        elif m in ("addiu", "addi"):
            if d.rt:
                e(f"regs[{d.rt}] = (regs[{d.rs}] + {d.imm}) & {MASK32}")
        elif m == "lw":
            target = f"regs[{d.rt}] = " if d.rt else ""
            e(f"{target}mem.load({self._addr(d)}, 4)")
        elif m == "sw":
            e(f"mem.store({self._addr(d)}, regs[{d.rt}], 4)")
        elif m in ("subu", "sub"):
            if d.rd:
                e(f"regs[{d.rd}] = (regs[{d.rs}] - regs[{d.rt}]) "
                  f"& {MASK32}")
        elif m == "and":
            if d.rd:
                e(f"regs[{d.rd}] = regs[{d.rs}] & regs[{d.rt}]")
        elif m == "or":
            if d.rd:
                e(f"regs[{d.rd}] = regs[{d.rs}] | regs[{d.rt}]")
        elif m == "xor":
            if d.rd:
                e(f"regs[{d.rd}] = regs[{d.rs}] ^ regs[{d.rt}]")
        elif m == "nor":
            if d.rd:
                e(f"regs[{d.rd}] = ~(regs[{d.rs}] | regs[{d.rt}]) "
                  f"& {MASK32}")
        elif m == "slt":
            # biased compare: s32(a) < s32(b)  <=>  a^2^31 < b^2^31
            if d.rd:
                e(f"regs[{d.rd}] = int((regs[{d.rs}] ^ {_SIGN}) < "
                  f"(regs[{d.rt}] ^ {_SIGN}))")
        elif m == "sltu":
            if d.rd:
                e(f"regs[{d.rd}] = int(regs[{d.rs}] < regs[{d.rt}])")
        elif m == "slti":
            if d.rt:
                biased = (d.imm & MASK32) ^ _SIGN
                e(f"regs[{d.rt}] = int((regs[{d.rs}] ^ {_SIGN}) < "
                  f"{biased})")
        elif m == "sltiu":
            if d.rt:
                e(f"regs[{d.rt}] = int(regs[{d.rs}] < "
                  f"{d.imm & MASK32})")
        elif m == "andi":
            if d.rt:
                e(f"regs[{d.rt}] = regs[{d.rs}] & {d.imm}")
        elif m == "ori":
            if d.rt:
                e(f"regs[{d.rt}] = regs[{d.rs}] | {d.imm}")
        elif m == "xori":
            if d.rt:
                e(f"regs[{d.rt}] = regs[{d.rs}] ^ {d.imm}")
        elif m == "lui":
            if d.rt:
                e(f"regs[{d.rt}] = {(d.imm << 16) & MASK32}")
        elif m == "sll":
            if d.rd:
                if d.shamt:
                    e(f"regs[{d.rd}] = (regs[{d.rt}] << {d.shamt}) "
                      f"& {MASK32}")
                else:
                    e(f"regs[{d.rd}] = regs[{d.rt}]")
        elif m == "srl":
            if d.rd:
                e(f"regs[{d.rd}] = regs[{d.rt}] >> {d.shamt}")
        elif m == "sra":
            if d.rd:
                e(f"regs[{d.rd}] = (_s32(regs[{d.rt}]) >> {d.shamt}) "
                  f"& {MASK32}")
        elif m == "sllv":
            if d.rd:
                e(f"regs[{d.rd}] = (regs[{d.rt}] << (regs[{d.rs}] "
                  f"& 31)) & {MASK32}")
        elif m == "srlv":
            if d.rd:
                e(f"regs[{d.rd}] = regs[{d.rt}] >> (regs[{d.rs}] & 31)")
        elif m == "srav":
            if d.rd:
                e(f"regs[{d.rd}] = (_s32(regs[{d.rt}]) >> "
                  f"(regs[{d.rs}] & 31)) & {MASK32}")
        elif m in ("lh", "lhu", "lb", "lbu"):
            size = 2 if m.startswith("lh") else 1
            signed = not m.endswith("u")
            call = f"mem.load({self._addr(d)}, {size}, signed={signed})"
            if d.rt:
                e(f"regs[{d.rt}] = {call} & {MASK32}")
            else:
                e(call)
        elif m in ("sh", "sb"):
            size = 2 if m == "sh" else 1
            e(f"mem.store({self._addr(d)}, regs[{d.rt}], {size})")
        elif m == "syscall":
            pass  # no-op in the bare-metal environment
        elif m in ("mult", "multu"):
            self.wait_muldiv()
            e(f"muldiv.mult(cycle, regs[{d.rs}], regs[{d.rt}], "
              f"signed={m == 'mult'})")
        elif m in ("div", "divu"):
            self.wait_muldiv()
            e(f"muldiv.div(cycle, regs[{d.rs}], regs[{d.rt}], "
              f"signed={m == 'div'})")
        elif m == "mflo":
            self.wait_muldiv()
            if d.rd:
                e(f"regs[{d.rd}] = muldiv.acc & {MASK32}")
        elif m == "mfhi":
            self.wait_muldiv()
            if d.rd:
                e(f"regs[{d.rd}] = (muldiv.acc >> 32) & {MASK32}")
        elif m == "mtlo":
            self.wait_muldiv()
            e(f"muldiv.set_lo(regs[{d.rs}])")
        elif m == "mthi":
            self.wait_muldiv()
            e(f"muldiv.set_hi(regs[{d.rs}])")
        elif m in ("maddu", "m2addu", "mulgf2", "maddgf2", "addau"):
            self.wait_muldiv()
            e(f"muldiv.{m}(cycle, regs[{d.rs}], regs[{d.rt}])")
        elif m == "sha":
            self.wait_muldiv()
            e("muldiv.sha(cycle)")
        else:  # pragma: no cover - discovery guarantees coverage
            raise ValueError(f"mnemonic {m!r} is not compilable")

    # -- whole-block assembly --------------------------------------------

    def source(self) -> str:
        decs, entry_pc, t = self.decs, self.entry_pc, self.timing
        n = len(decs)
        out = self.lines
        out.append("def __block(cpu):")
        self.emit("regs = cpu.regs")
        self.emit("mem = cpu.mem")
        self.emit("stats = cpu.stats")
        self.emit("cycle = cpu.cycle")
        if t.uses_muldiv:
            self.emit("muldiv = cpu.muldiv")
        if self.icache_on:
            self.emit("access = cpu.icache.access")
        dynamic_stall = (self.icache_on or t.uses_muldiv
                         or bool(t.entry_sources))
        if dynamic_stall:
            self.emit("stall = 0")
        if t.uses_muldiv:
            self.emit("mstall = 0")
        if t.entry_sources:
            self.emit("luse = 0")

        for i, (d, stall) in enumerate(zip(decs, t.stall_before)):
            pc = entry_pc + 4 * i
            if self.icache_on:
                # `now` is only a trace timestamp; tracer is None here
                self.emit(f"_p = access({pc})")
                self.emit("if _p:")
                self.emit("    cycle += _p")
                self.emit("    stall += _p")
            if i == 0 and t.entry_sources:
                self.emit("_llr = cpu._last_load_reg")
                self.emit(f"if _llr is not None and _llr in "
                          f"{t.entry_sources!r}:")
                self.emit("    cycle += 1")
                self.emit("    stall += 1")
                self.emit("    luse += 1")
            if stall:   # static intra-block load-use interlock
                self.pending_cycles += 1
            self.gen_exec(d)
            self.pending_cycles += 1   # the instruction's own cycle

        self.flush_cycles()
        self.emit("cpu.cycle = cycle")
        self.emit(f"cpu.pc = {entry_pc + 4 * n}")
        self.emit(f"cpu._last_load_reg = {t.exit_load!r}")
        self.emit("stats.cycles = cycle")
        self.emit(f"stats.instructions += {n}")
        stall_terms = (["stall"] if dynamic_stall else []) + \
            ([str(t.static_stalls)] if t.static_stalls else [])
        if stall_terms:
            self.emit(f"stats.stall_cycles += {' + '.join(stall_terms)}")
        luse_terms = (["luse"] if t.entry_sources else []) + \
            ([str(t.static_stalls)] if t.static_stalls else [])
        if luse_terms:
            self.emit(
                f"stats.load_use_stalls += {' + '.join(luse_terms)}")
        if t.uses_muldiv:
            self.emit("stats.mult_stall_cycles += mstall")
        if t.mult_issues:
            self.emit(f"stats.mult_issues += {t.mult_issues}")
        if t.div_issues:
            self.emit(f"stats.div_issues += {t.div_issues}")
        if not self.icache_on:
            # uncached fetch: one ROM word read per instruction (the
            # cached path counts accesses inside ICache.access)
            self.emit(f"stats.rom_word_reads += {n}")
        return "\n".join(out) + "\n"


def compile_block(decs: list[Decoded], entry_pc: int,
                  icache_on: bool) -> Callable:
    """Compile one straight-line run into an executable closure."""
    source = _BlockCompiler(decs, entry_pc, icache_on).source()
    namespace: dict = {"_s32": _s32}
    exec(compile(source, f"<superblock@0x{entry_pc:x}>", "exec"),
         namespace)
    fn = namespace["__block"]
    fn.__fastpath_source__ = source      # introspection for tests/debug
    fn.__fastpath_len__ = len(decs)
    return fn


# ---------------------------------------------------------------------------
# Per-core block map
# ---------------------------------------------------------------------------

_MISS = object()

#: Shared discovery maps, content-addressed by the loaded program (its
#: word tuple + base) and the execution configuration.  Cores running
#: the same program -- ``Pete.clone()`` trials, the runner's
#: median-of-3 repeats -- reuse one pc -> closure map instead of
#: re-discovering and re-decoding every block on every run (discovery
#: dominates short runs otherwise).  Closures only touch the ``cpu``
#: argument they are called with, so sharing them across cores is safe.
_BLOCK_MAPS = BoundedMemo(64)


class Fastpath:
    """Discovers, compiles and caches superblocks for one core."""

    def __init__(self, cpu: "Pete") -> None:
        # weak, like ``mem.clock``: the core holds its Fastpath, so a
        # strong back-reference would leave every core that ran (256 KB
        # of ROM each) to the cycle collector
        self._cpu = weakref.proxy(cpu)
        #: entry PC -> closure, or None where no block applies (block
        #: boundaries and too-short runs); shared with other cores
        #: running the same program under the same configuration
        self._blocks: dict[int, Optional[Callable]] = {}
        self._key: Optional[tuple] = None
        self._attach()

    # -- configuration / invalidation ------------------------------------

    def _fingerprint(self) -> tuple:
        cpu = self._cpu
        return (cpu.icache, cpu.muldiv.extensions,
                cpu.muldiv.binary_extensions)

    def _attach(self) -> None:
        """Bind ``self._blocks`` to the shared map for the currently
        loaded program (a private map when no program is loaded)."""
        cpu = self._cpu
        self._config = self._fingerprint()
        self._key = None
        if cpu.program is None:
            self._blocks = {}
            return
        self._key = (tuple(cpu.program.words), cpu.program.base,
                     cpu.icache is not None,
                     cpu.muldiv.extensions,
                     cpu.muldiv.binary_extensions)
        blocks = _BLOCK_MAPS.get(self._key)
        if blocks is None:
            blocks = _BLOCK_MAPS.put(self._key, {})
        self._blocks = blocks

    def invalidate(self) -> None:
        """Drop every cached closure (ROM reload / decoded flush).

        The current shared map is emptied *and* unregistered, so cores
        still bound to it rediscover from their actual ROM; this core
        rebinds to the map for whatever program is now loaded.
        """
        if self._key is not None:
            _BLOCK_MAPS.pop(self._key, None)
        self._blocks.clear()
        self._attach()

    # -- lookup ----------------------------------------------------------

    def lookup(self, pc: int) -> Optional[Callable]:
        """The closure entered at ``pc``, compiling on first miss;
        ``None`` where the reference interpreter must run."""
        if self._config != self._fingerprint():
            # configuration change (icache swap, extension toggle):
            # rebind to the matching shared map, keep other maps intact
            self._attach()
        block = self._blocks.get(pc, _MISS)
        if block is _MISS:
            block = self._compile_at(pc)
            self._blocks[pc] = block
        return block

    # -- discovery / compilation -----------------------------------------

    def _decode(self, addr: int) -> Decoded:
        """The instruction in ROM at ``addr``, through the core's
        decoded-instruction cache."""
        cpu = self._cpu
        word = cpu.mem.peek_word(addr)
        d = cpu._decoded.get(addr)
        if d is None or d.word != word:
            d = cpu._decoded[addr] = PeteISA.decode(word)
        return d

    def _compile_at(self, pc: int) -> Optional[Callable]:
        t0 = time.perf_counter()
        decs = discover(self._decode, pc)
        obs.count("fastpath_blocks_discovered")
        if len(decs) < MIN_BLOCK_LEN:
            return None
        icache_on = self._cpu.icache is not None
        key = (icache_on, pc, tuple(d.word for d in decs))
        fn = _CODE_CACHE.get(key)
        if fn is not None:
            obs.count("fastpath_code_cache_hits")
            return fn
        fn = _CODE_CACHE.put(key, compile_block(decs, pc, icache_on))
        obs.count("fastpath_blocks_compiled")
        tel = obs.get()
        if tel is not None:
            tel.counter("fastpath_block_instructions").inc(len(decs))
            tel.histogram("fastpath_compile_s").observe(
                time.perf_counter() - t0)
        return fn

    def precompile(self, starts) -> int:
        """Drive this core's shared block map to closure over
        ``starts`` (see :func:`repro.pete.blocks.close_blocks`); short
        runs are *decided* (stored as ``None``), so they stop counting
        as discoveries too.  Returns the number of blocks newly
        compiled."""
        base = obs.counts()
        close_blocks(starts, lambda pc: getattr(
            self.lookup(pc), "__fastpath_len__", 0))
        return obs.counts_since(base)["fastpath_blocks_compiled"]
