"""Pete's timing interpreter: semantics and pipeline cycle effects."""

import gc
import weakref

import pytest

from repro.pete import Pete, assemble
from repro.pete.icache import ICacheConfig
from repro.pete.memory import RAM_BASE


def run_program(source, extensions=False, binary_extensions=False,
                icache=None, regs=None):
    program = assemble(source)
    cpu = Pete(extensions=extensions, binary_extensions=binary_extensions,
               icache=icache)
    cpu.load(program)
    for name, value in (regs or {}).items():
        cpu.set_reg(name, value)
    stats = cpu.run(program.address_of("main"))
    return cpu, stats


def test_arithmetic_semantics():
    cpu, _ = run_program("""
    main:
        li $t0, 7
        li $t1, -3
        addu $t2, $t0, $t1
        subu $t3, $t0, $t1
        and  $t4, $t0, $t1
        or   $t5, $t0, $t1
        xor  $t6, $t0, $t1
        slt  $t7, $t1, $t0
        sltu $t8, $t1, $t0
        halt
    """)
    assert cpu.get_reg("t2") == 4
    assert cpu.get_reg("t3") == 10
    assert cpu.get_reg("t4") == 7 & (-3 & 0xFFFFFFFF)
    assert cpu.get_reg("t5") == 7 | (-3 & 0xFFFFFFFF)
    assert cpu.get_reg("t6") == 7 ^ (-3 & 0xFFFFFFFF)
    assert cpu.get_reg("t7") == 1, "signed: -3 < 7"
    assert cpu.get_reg("t8") == 0, "unsigned: 0xFFFFFFFD > 7"


def test_shifts():
    cpu, _ = run_program("""
    main:
        li  $t0, 0x80000000
        srl $t1, $t0, 4
        sra $t2, $t0, 4
        sll $t3, $t0, 1
        li  $t4, 8
        srlv $t5, $t0, $t4
        halt
    """)
    assert cpu.get_reg("t1") == 0x08000000
    assert cpu.get_reg("t2") == 0xF8000000
    assert cpu.get_reg("t3") == 0
    assert cpu.get_reg("t5") == 0x00800000


def test_memory_and_subword_access():
    cpu, _ = run_program("""
    main:
        li $a0, 0x10000000
        li $t0, 0x80FF1234
        sw $t0, 0($a0)
        lhu $t1, 0($a0)
        lh  $t2, 2($a0)
        lbu $t3, 3($a0)
        lb  $t4, 3($a0)
        sb  $t0, 8($a0)
        lw  $t5, 8($a0)
        halt
    """)
    assert cpu.get_reg("t1") == 0x1234
    assert cpu.get_reg("t2") == 0xFFFF80FF, "lh sign-extends"
    assert cpu.get_reg("t3") == 0x80
    assert cpu.get_reg("t4") == 0xFFFFFF80
    assert cpu.get_reg("t5") == 0x34


def test_zero_register_immutable():
    cpu, _ = run_program("""
    main:
        addiu $zero, $zero, 99
        addu $t0, $zero, $zero
        halt
    """)
    assert cpu.get_reg("zero") == 0
    assert cpu.get_reg("t0") == 0


def test_load_use_stall():
    dependent_src = """
    main:
        li $a0, 0x10000000
        li $t1, 7
        sw $t1, 0($a0)
        lw $t0, 0($a0)
        addu $t2, $t0, $t0
        nop
        halt
    """
    independent_src = """
    main:
        li $a0, 0x10000000
        li $t1, 7
        sw $t1, 0($a0)
        lw $t0, 0($a0)
        nop
        addu $t2, $t0, $t0
        halt
    """
    cpu_d, dependent = run_program(dependent_src)
    cpu_i, independent = run_program(independent_src)
    assert cpu_d.get_reg("t2") == 14
    assert cpu_i.get_reg("t2") == 14
    assert dependent.load_use_stalls == 1
    assert independent.load_use_stalls == 0
    # same instruction count, but the interlock adds one bubble
    assert dependent.cycles == independent.cycles + 1


def test_multiplier_latency_hidden_by_scheduling():
    eager = """
    main:
        li $t0, 1000
        li $t1, 3000
        multu $t0, $t1
        mflo $t2
        halt
    """
    scheduled = """
    main:
        li $t0, 1000
        li $t1, 3000
        multu $t0, $t1
        addiu $t3, $zero, 1
        addiu $t4, $zero, 2
        addiu $t5, $zero, 3
        mflo $t2
        halt
    """
    cpu_e, stats_e = run_program(eager)
    cpu_s, stats_s = run_program(scheduled)
    assert cpu_e.get_reg("t2") == 3_000_000
    assert cpu_s.get_reg("t2") == 3_000_000
    assert stats_e.mult_stall_cycles == 3, "mflo one cycle after issue"
    assert stats_s.mult_stall_cycles == 0, "independent work hides latency"


def test_division():
    cpu, stats = run_program("""
    main:
        li $t0, 100
        li $t1, 7
        divu $t0, $t1
        mflo $t2
        mfhi $t3
        li $t4, -100
        li $t5, 7
        div $t4, $t5
        mflo $t6
        halt
    """)
    assert cpu.get_reg("t2") == 14
    assert cpu.get_reg("t3") == 2
    assert cpu.get_reg("t6") == (-14) & 0xFFFFFFFF
    assert stats.div_issues == 2
    assert stats.mult_stall_cycles > 30, "the restoring divider is slow"


def test_branch_loop_and_prediction():
    cpu, stats = run_program("""
    main:
        li $t0, 0
        li $t1, 50
    loop:
        addiu $t0, $t0, 1
        bne $t0, $t1, loop
        nop
        halt
    """)
    assert cpu.get_reg("t0") == 50
    assert stats.branches == 50
    # backward-taken initialization: only the final fall-through mispredicts
    assert stats.branch_mispredicts <= 2


def test_jal_jr_function_call():
    cpu, _ = run_program("""
    main:
        li $a0, 21
        jal double
        nop
        addu $t9, $v0, $zero
        halt
    double:
        jr $ra
        .ds addu $v0, $a0, $a0
    """)
    assert cpu.get_reg("t9") == 42


def test_delay_slot_semantics():
    """The instruction after a taken branch always executes."""
    cpu, _ = run_program("""
    main:
        li $t0, 0
        b over
        .ds addiu $t0, $t0, 1
        addiu $t0, $t0, 100
    over:
        halt
    """)
    assert cpu.get_reg("t0") == 1, "delay slot ran, skipped body did not"


def test_rom_read_counting():
    _, stats = run_program("""
    main:
        nop
        nop
        halt
    """)
    # li/nop/halt etc: one ROM word read per fetched instruction
    assert stats.rom_word_reads == stats.instructions


def test_icache_path_counts_accesses():
    _, stats = run_program("""
    main:
        li $t0, 100
    loop:
        addiu $t0, $t0, -1
        bne $t0, $zero, loop
        nop
        halt
    """, icache=ICacheConfig(size_bytes=1024))
    assert stats.icache_accesses == stats.instructions
    assert stats.icache_misses >= 1, "cold start misses"
    assert stats.icache_hits > stats.icache_misses
    assert stats.rom_word_reads == 0, "all fetches go through the cache"
    assert stats.rom_line_reads == stats.icache_misses


def test_unaligned_access_raises():
    with pytest.raises(MemoryError):
        run_program("""
        main:
            li $a0, 0x10000001
            lw $t0, 0($a0)
            halt
        """)


def test_store_to_rom_raises():
    with pytest.raises(MemoryError):
        run_program("""
        main:
            sw $t0, 64($zero)
            halt
        """)


def test_runaway_program_detected():
    program = assemble("main:\n b main\n nop")
    cpu = Pete()
    cpu.load(program)
    with pytest.raises(RuntimeError):
        cpu.run(0, max_cycles=500)


def test_core_that_ran_is_freed_without_the_cycle_collector():
    """The memory system reaches its core's clock through a weak
    reference, so dropping the last outside reference frees a core
    that ran (256 KB of ROM) at once instead of at the next gc pass."""
    program = assemble("""
    main:
        li $t0, 5
    loop:
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        .ds nop
        halt
    """)
    cpu = Pete()
    cpu.load(program)
    gc.disable()
    try:
        cpu.run(program.address_of("main"))
        assert isinstance(cpu.mem.clock, weakref.ProxyType)
        alive = weakref.ref(cpu)
        del cpu
        assert alive() is None
    finally:
        gc.enable()


def test_extensions_gated():
    with pytest.raises(RuntimeError):
        run_program("main:\n maddu $t0, $t1\n halt")
    with pytest.raises(RuntimeError):
        run_program("main:\n mulgf2 $t0, $t1\n halt")


def test_accumulator_extensions():
    cpu, _ = run_program("""
    main:
        li $t0, 0xFFFFFFFF
        li $t1, 0xFFFFFFFF
        maddu $t0, $t1
        maddu $t0, $t1
        m2addu $t0, $t1
        mflo $t2
        mfhi $t3
        sha
        sha
        mflo $t4      # former OvFlo
        halt
    """, extensions=True)
    acc = 4 * (0xFFFFFFFF ** 2)
    assert cpu.get_reg("t2") == acc & 0xFFFFFFFF
    assert cpu.get_reg("t3") == (acc >> 32) & 0xFFFFFFFF
    assert cpu.get_reg("t4") == (acc >> 64) & 0xFFFFFFFF


def test_addau():
    cpu, _ = run_program("""
    main:
        mtlo $zero
        mthi $zero
        sha
        sha
        li $t0, 3
        li $t1, 9
        addau $t0, $t1
        mflo $t2
        mfhi $t3
        halt
    """, extensions=True)
    assert cpu.get_reg("t2") == 9
    assert cpu.get_reg("t3") == 3


def test_carryless_extensions():
    from repro.fields.inversion import _poly_mul

    cpu, _ = run_program("""
    main:
        li $t0, 0xDEADBEEF
        li $t1, 0x12345678
        mulgf2 $t0, $t1
        mflo $t2
        mfhi $t3
        maddgf2 $t0, $t1
        mflo $t4
        halt
    """, extensions=True, binary_extensions=True)
    product = _poly_mul(0xDEADBEEF, 0x12345678)
    assert cpu.get_reg("t2") == product & 0xFFFFFFFF
    assert cpu.get_reg("t3") == (product >> 32) & 0xFFFFFFFF
    assert cpu.get_reg("t4") == 0, "xor with itself clears"


def test_ram_roundtrip_helpers():
    cpu = Pete()
    cpu.mem.write_ram_words(RAM_BASE + 0x40, [1, 2, 0xFFFFFFFF])
    assert cpu.mem.read_ram_words(RAM_BASE + 0x40, 3) == [1, 2, 0xFFFFFFFF]
