"""Static superblock map: the straight-line runs of a program image.

For every instruction index, the length of the maximal straight-line
run of compilable instructions starting there, under the predicate the
lane engine's block front end (:mod:`repro.pete.blocks`) applies at run
time: ``mnemonic in COMPILABLE``, data words and decode failures end a
run, and ``MAX_BLOCK_LEN`` caps what one closure holds.
:func:`static_blocks` is the map itself, exported into the ``verify``
findings artifact and the ``table_bounds`` artifact's ``superblocks``
and ``sb_coverage`` columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import AsmProgram
from repro.pete.blocks import COMPILABLE, MAX_BLOCK_LEN

#: Runs shorter than this do not count as superblocks.
MIN_BLOCK_LEN = 2


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
