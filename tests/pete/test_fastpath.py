"""Superblock fast path: exactness, cache invalidation, deopt."""

import gc
import random
import weakref

import pytest

from repro import obs
from repro.pete import Pete, assemble
from repro.pete.diffexec import compare_state, lockstep, run_reference
from repro.pete.icache import ICacheConfig
from repro.trace.bus import CollectingSink, TraceBus
from repro.trace.events import RETIRE

STRAIGHT_LINE = """
main:
    li   $t0, 7
    li   $t1, 9
    addu $t2, $t0, $t1
    subu $t3, $t1, $t0
    multu $t0, $t1
    mflo $t4
    sll  $t5, $t4, 2
    halt
"""

LOOP = """
main:
    li $t0, 0
    li $t1, 25
    li $t2, 0
loop:
    addiu $t0, $t0, 1
    xor   $t2, $t2, $t0
    sll   $t3, $t0, 3
    addu  $t2, $t2, $t3
    bne   $t0, $t1, loop
    .ds addiu $t4, $t4, 2
    halt
"""


def _fresh(source, **kwargs):
    program = assemble(source)
    cpu = Pete(**kwargs)
    cpu.load(program)
    return cpu, program


def _run_both(source, **kwargs):
    """(reference cpu, fast cpu) after complete runs on equal inputs."""
    cpu, program = _fresh(source, **kwargs)
    ref = cpu.clone()
    entry = program.address_of("main")
    run_reference(ref, entry)
    cpu.run(entry)
    return ref, cpu


def test_fast_run_matches_reference_straight_line():
    base = obs.counts()
    ref, fast = _run_both(STRAIGHT_LINE)
    assert compare_state(ref, fast) is None
    moved = obs.counts_since(base)
    assert (moved["fastpath_blocks_compiled"]
            + moved["fastpath_code_cache_hits"]) > 0, \
        "the straight-line body must actually run as a superblock"


def test_fast_run_matches_reference_loop():
    ref, fast = _run_both(LOOP)
    assert compare_state(ref, fast) is None


def test_fast_run_matches_reference_with_icache():
    config = ICacheConfig()
    ref, fast = _run_both(LOOP, icache=config)
    assert compare_state(ref, fast) is None
    assert fast.stats.icache_accesses > 0


def test_incoming_load_use_across_block_entry():
    """A load in a delay slot lands immediately before a block entry
    that consumes it: the block's first instruction must pay the
    load-use stall exactly like the reference interpreter."""
    source = """
    main:
        li $t1, 40
        sw $t1, 0($sp)
        j  skip
        .ds lw $t0, 0($sp)
    skip:
        addu $t2, $t0, $t0
        subu $t3, $t2, $t1
        xor  $t4, $t3, $t2
        halt
    """
    ref, fast = _run_both(source)
    assert compare_state(ref, fast) is None
    assert ref.stats.load_use_stalls == 1


def test_invalidation_on_rom_reload():
    cpu, program = _fresh(STRAIGHT_LINE)
    entry = program.address_of("main")
    cpu.run(entry)
    first = cpu.fastpath

    replacement = assemble("""
    main:
        li   $t0, 100
        li   $t1, 1
        subu $t2, $t0, $t1
        addu $t3, $t2, $t2
        halt
    """)
    cpu.load(replacement)
    ref = cpu.clone()
    run_reference(ref, replacement.address_of("main"))
    cpu.run(replacement.address_of("main"))
    assert compare_state(ref, cpu) is None
    assert cpu.get_reg("t3") == 198
    assert cpu.fastpath is first, "the engine persists across reloads"


def test_invalidation_on_flush_decoded():
    cpu, program = _fresh(STRAIGHT_LINE)
    entry = program.address_of("main")
    cpu.run(entry)

    # patch one word in ROM behind the engine's back: li $t1, 9 -> 13
    patched = assemble(STRAIGHT_LINE.replace("li   $t1, 9",
                                             "li   $t1, 13"))
    cpu.mem.write_rom(program.base, b"".join(
        w.to_bytes(4, "little") for w in patched.words))
    cpu.flush_decoded()

    cpu.run(entry)
    assert cpu.get_reg("t2") == 20, "stale superblock survived the flush"
    assert cpu.get_reg("t4") == 7 * 13


def test_config_change_rebinds_block_map():
    cpu, program = _fresh(LOOP)
    entry = program.address_of("main")
    cpu.run(entry)
    fastpath = cpu.fastpath
    key_before = fastpath._key

    # swapping the icache mid-session is a configuration change: the
    # next lookup must rebind to a different shared map (closures for
    # the uncached configuration fold in rom_word_reads counting)
    from repro.pete.icache import ICache

    cpu.icache = ICache(ICacheConfig(), cpu.stats)
    cpu.mem.icache = getattr(cpu.mem, "icache", None)
    fastpath.lookup(entry)
    assert fastpath._key != key_before
    assert fastpath._config == fastpath._fingerprint()


def test_core_that_ran_is_freed_without_the_cycle_collector():
    """The core owns its Fastpath and the Fastpath only points back
    weakly, so dropping the last outside reference frees a core that
    ran (256 KB of ROM) at once instead of at the next gc pass."""
    cpu, program = _fresh(LOOP)
    gc.disable()
    try:
        cpu.run(program.address_of("main"))
        assert cpu.fastpath is not None
        alive = weakref.ref(cpu)
        del cpu
        assert alive() is None
    finally:
        gc.enable()


def test_deopt_under_mid_run_trace_attach():
    """Attaching a tracer mid-run deoptimizes at the next block
    boundary: per-instruction RETIRE events keep firing, with the same
    cycle numbers a fully-traced reference run produces."""
    cpu, program = _fresh(LOOP)
    entry = program.address_of("main")

    # golden: the whole run traced on the reference interpreter
    golden = cpu.clone()
    golden_sink = CollectingSink()
    golden.attach_tracer(TraceBus([golden_sink]))
    run_reference(golden, entry)

    # block-threaded run, tracer attached after the first few units
    cpu.begin(entry)
    sink = CollectingSink()
    units = 0
    alive, blocks = True, 0
    while alive:
        before = cpu.stats.instructions
        alive = cpu.step_unit()
        blocks += cpu.stats.instructions - before > 1
        units += 1
        if units == 4:
            attach_cycle = cpu.cycle
            cpu.attach_tracer(TraceBus([sink]))
    assert blocks > 0, "the loop body must run as superblocks pre-attach"
    assert compare_state(golden, cpu) is None

    traced = [(e.cycle, e.duration, e.pc, e.detail)
              for e in sink.events if e.kind == RETIRE]
    golden_tail = [(e.cycle, e.duration, e.pc, e.detail)
                   for e in golden_sink.events
                   if e.kind == RETIRE and e.cycle >= attach_cycle]
    assert traced, "no RETIRE events after mid-run attach"
    assert traced == golden_tail


def test_block_map_shared_across_clones():
    from repro.pete import fastpath as fp

    fp._BLOCK_MAPS.clear()
    fp._CODE_CACHE.clear()
    cpu, program = _fresh(LOOP)
    entry = program.address_of("main")
    base = obs.counts()
    cpu.run(entry)
    assert obs.counts_since(base)["fastpath_blocks_compiled"] > 0

    other = cpu.clone()
    base = obs.counts()
    other.run(entry)
    moved = obs.counts_since(base)
    assert moved["fastpath_blocks_compiled"] == 0, \
        "a clone re-running the same program must reuse the shared map"
    assert moved["fastpath_blocks_discovered"] == 0


def test_max_cycles_still_enforced():
    cpu, program = _fresh("""
    main:
        li $t0, 0
    loop:
        addiu $t0, $t0, 1
        xor   $t1, $t1, $t0
        j loop
        .ds addu $t2, $t1, $t0
        halt
    """)
    with pytest.raises(RuntimeError):
        cpu.run(program.address_of("main"), max_cycles=2000)


@pytest.mark.parametrize("seed", range(6))
def test_lockstep_fuzz_random_programs(seed):
    """Random straight-line programs under the differential harness."""
    from tests.pete.test_fuzz import _random_program

    rng = random.Random(4242 + seed)
    source, _ = _random_program(rng)
    program = assemble(source)
    cpu = Pete()
    cpu.load(program)
    report = lockstep(cpu, program.address_of("main"),
                      label=f"fuzz-{seed}")
    assert report.ok, report.format()
    assert report.blocks > 0
