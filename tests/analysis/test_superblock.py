"""Static superblock map."""

from repro.analysis.cfg import AsmProgram
from repro.analysis.superblock import (
    MIN_BLOCK_LEN,
    coverage,
    run_lengths,
    static_blocks,
)


def _program(src, name="t"):
    return AsmProgram.from_source(src, name=name)


STRAIGHT = """
    addu $t0, $a0, $a1
    addiu $t1, $t0, 4
    sll $t2, $t1, 2
    sw $t2, 0($a0)
    jr $ra
    nop
"""


def test_run_lengths_end_at_uncompilable():
    program = _program(STRAIGHT)
    runs = run_lengths(program)
    # four simple ops, then jr (not compilable) ends the run
    assert runs[0] == 4
    assert runs[3] == 1
    assert runs[4] == 0  # jr


def test_static_blocks_respect_min_length():
    program = _program(STRAIGHT)
    blocks = static_blocks(program)
    assert (blocks[0].start, blocks[0].length) == (0, 4)
    assert all(b.length >= MIN_BLOCK_LEN for b in blocks)
    assert 0.0 < coverage(program) < 1.0


def test_branch_splits_runs():
    runs = run_lengths(_program("""
        addu $t0, $a0, $a1
        beq $t0, $zero, 0x10
        nop
        addu $t2, $t0, $t0
        jr $ra
        nop
    """))
    assert runs[0] == 1   # run ends at the branch
    assert runs[1] == 0   # the branch itself
