"""The block front end of the lane engine.

The lane engine (:mod:`repro.pete.lanes`) compiles one unit: a maximal
straight-line run of *compilable* instructions, entered at a pc and
left at the next branch, jump, COP2 command or trap.  Everything about
such a run that does not depend on how the engine holds its state
lives here:

* :func:`discover` decodes forward from a pc while the mnemonic is in
  :data:`COMPILABLE`, at most :data:`MAX_BLOCK_LEN` instructions;
* :func:`close_blocks` drives a block map to closure over statically
  known block starts (the ``precompile`` pass);
* :func:`timing` is the static timing pass the emitter folds into its
  closures;
* :class:`BoundedMemo` is the size policy of every process-wide memo
  (compiled code, per-program block maps, assembled programs).

:mod:`repro.analysis.superblock` applies the same predicate statically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.pete.cpu import _sources
from repro.pete.isa import Decoded

#: Discovery stops after this many instructions; execution simply
#: continues in the follow-on block, so the cap only bounds codegen.
MAX_BLOCK_LEN = 256

#: Mnemonics with straight-line semantics (compilable into blocks).
#: Everything else -- branches, jumps, COP2/CTC2, break -- ends a block.
_SIMPLE = frozenset((
    "addu", "add", "addiu", "addi", "subu", "sub",
    "and", "or", "xor", "nor",
    "slt", "sltu", "slti", "sltiu",
    "andi", "ori", "xori", "lui",
    "sll", "srl", "sra", "sllv", "srlv", "srav",
    "lw", "lh", "lhu", "lb", "lbu", "sw", "sh", "sb",
    "syscall",
))
MULDIV = frozenset((
    "mult", "multu", "div", "divu", "mflo", "mfhi", "mtlo", "mthi",
    "maddu", "m2addu", "addau", "sha", "mulgf2", "maddgf2",
))
COMPILABLE = _SIMPLE | MULDIV

#: mnemonics that charge the issue counters (mirrors Pete._step)
MULT_ISSUE = frozenset(("mult", "multu", "maddu", "m2addu",
                        "mulgf2", "maddgf2"))
DIV_ISSUE = frozenset(("div", "divu"))


class BoundedMemo(dict):
    """A process-wide memo that forgets everything once it holds
    ``limit`` entries.  Entries are cheap to rebuild, and a sweep over
    many programs must not grow a long-lived process without bound."""

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def put(self, key, value):
        """Store ``value`` under ``key`` and return it."""
        if len(self) >= self.limit:
            self.clear()
        self[key] = value
        return value


def discover(decode: Callable[[int], Decoded], pc: int,
             limit: int = MAX_BLOCK_LEN) -> list[Decoded]:
    """The compilable run starting at ``pc``, at most ``limit`` long.

    ``decode(addr)`` raises ``ValueError`` / ``MemoryError`` where no
    instruction decodes (data words, unmapped ROM); that ends the run,
    and the engine's reference step raises at that pc instead.
    """
    decs: list[Decoded] = []
    addr = pc
    while len(decs) < limit:
        try:
            d = decode(addr)
        except (ValueError, MemoryError):
            break
        if d.mnemonic not in COMPILABLE:
            break
        decs.append(d)
        addr += 4
    return decs


def close_blocks(starts: Iterable[int],
                 lookup: Callable[[int], int]) -> None:
    """Drive a block map to closure over ``starts``.

    ``lookup(pc)`` compiles (or decides) the block at ``pc`` and
    returns its length; a block that hit ``MAX_BLOCK_LEN`` continues at
    the next pc, which is a block start as well.  ``starts`` are
    statically known block starts, e.g. CFG basic-block leaders.
    """
    seen: set[int] = set()
    work = [int(pc) for pc in starts]
    while work:
        pc = work.pop()
        if pc in seen:
            continue
        seen.add(pc)
        if lookup(pc) == MAX_BLOCK_LEN:
            work.append(pc + 4 * MAX_BLOCK_LEN)


@dataclass(frozen=True)
class BlockTiming:
    """The statically known timing of one compilable run."""

    #: registers the first instruction reads ($zero never stalls): a
    #: load latched *before* the block into one of them costs one
    #: dynamic load-use stall at entry
    entry_sources: tuple[int, ...]
    #: per instruction, whether a load-use stall on the previous
    #: instruction of the block precedes it (statically certain)
    stall_before: tuple[bool, ...]
    mult_issues: int
    div_issues: int
    #: the block uses the MulDiv unit, so it has dynamic drain waits
    uses_muldiv: bool
    #: the load-use latch the block leaves behind
    exit_load: int | None

    @property
    def static_stalls(self) -> int:
        return sum(self.stall_before)


def timing(decs: Sequence[Decoded]) -> BlockTiming:
    """The static timing pass over a compilable run."""
    stall_before = []
    prev_load: int | None = None
    for d in decs:
        stall_before.append(prev_load is not None
                            and prev_load in _sources(d))
        prev_load = d.rt if (d.is_load and d.rt) else None
    return BlockTiming(
        entry_sources=tuple(r for r in _sources(decs[0]) if r),
        stall_before=tuple(stall_before),
        mult_issues=sum(d.mnemonic in MULT_ISSUE for d in decs),
        div_issues=sum(d.mnemonic in DIV_ISSUE for d in decs),
        uses_muldiv=any(d.mnemonic in MULDIV for d in decs),
        exit_load=prev_load,
    )
