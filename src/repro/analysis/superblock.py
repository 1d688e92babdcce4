"""Static superblock map: the regions the fastpath may compile.

:mod:`repro.pete.fastpath` discovers superblocks *dynamically* -- when
execution first reaches a pc it decodes forward while the mnemonics
stay in its ``COMPILABLE`` set and compiles the run into a closure.
This module computes the same property *statically* over a whole
program image: for every instruction index, the length of the maximal
straight-line compilable run starting there.  Because both sides apply
the identical predicate (``mnemonic in COMPILABLE``, data words and
decode failures terminate a run, ``MAX_BLOCK_LEN`` caps discovery),
the static map is a certificate for dynamic discovery:

* every block the fastpath compiles must lie inside a statically
  mapped region of at least the same length (``static >= dynamic``),
  and
* every pc the fastpath *declined* (cached ``None``) must rate below
  ``MIN_BLOCK_LEN`` statically.

:func:`certify` checks both directions against a fastpath's discovery
cache and returns human-readable mismatches; :mod:`repro.pete.diffexec`
runs it after every lock-step comparison and CI fails on a non-empty
result.  :func:`static_blocks` is the map itself, exported into the
``verify`` findings artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from repro.analysis.cfg import AsmProgram
from repro.pete.blocks import COMPILABLE, MAX_BLOCK_LEN, MIN_BLOCK_LEN


@dataclass(frozen=True)
class Superblock:
    """One maximal statically compilable run ``[start, start+length)``."""

    start: int    # instruction index of the first compilable instruction
    length: int   # run length in instructions (uncapped)

    def to_dict(self) -> dict:
        return {"start": self.start, "length": self.length,
                "compiled_length": min(self.length, MAX_BLOCK_LEN)}


def run_lengths(program: AsmProgram) -> list[int]:
    """``run[i]`` = consecutive compilable instructions starting at
    ``i`` (uncapped; 0 for data words and non-compilable mnemonics)."""
    n = len(program)
    run = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        d = program.decoded[i]
        if d is not None and d.mnemonic in COMPILABLE:
            run[i] = run[i + 1] + 1
    return run[:n]


def static_blocks(program: AsmProgram) -> list[Superblock]:
    """Maximal compilable runs of at least ``MIN_BLOCK_LEN``."""
    run = run_lengths(program)
    blocks: list[Superblock] = []
    i, n = 0, len(program)
    while i < n:
        if run[i] >= MIN_BLOCK_LEN:
            blocks.append(Superblock(i, run[i]))
            i += run[i]
        else:
            i += 1
    return blocks


def coverage(program: AsmProgram) -> float:
    """Fraction of instruction words inside a static superblock."""
    n = sum(1 for d in program.decoded if d is not None)
    if n == 0:
        return 0.0
    covered = sum(b.length for b in static_blocks(program))
    return covered / n


def certify(program: AsmProgram,
            blocks: Mapping[int, Optional[Callable]]) -> list[str]:
    """Cross-check dynamic fastpath discovery against the static map.

    ``blocks`` is a fastpath discovery cache: pc (byte address) ->
    compiled closure (with ``__fastpath_len__``) or ``None`` for a
    declined pc.  Returns mismatch descriptions; empty means every
    dynamically discovered block is certified by the static map.
    """
    run = run_lengths(program)
    n = len(program)
    problems: list[str] = []
    for pc, fn in blocks.items():
        idx = (pc - program.base) // 4
        if not 0 <= idx < n:
            problems.append(
                f"pc 0x{pc:08x}: dynamic discovery outside the analyzed "
                f"image [0x{program.base:08x}, 0x{program.base + 4 * n:08x})")
            continue
        static_len = min(run[idx], MAX_BLOCK_LEN)
        if fn is None:
            if static_len >= MIN_BLOCK_LEN:
                problems.append(
                    f"index {idx}: fastpath declined a block the static "
                    f"map rates {static_len} instructions "
                    f"({program.line(idx)})")
            continue
        dyn_len = getattr(fn, "__fastpath_len__", None)
        if dyn_len is None:
            problems.append(
                f"index {idx}: compiled block carries no "
                f"__fastpath_len__ -- cannot certify")
        elif dyn_len > static_len:
            problems.append(
                f"index {idx}: dynamic block of {dyn_len} instructions "
                f"exceeds the static map's {static_len} "
                f"({program.line(idx)})")
    return problems
