"""The execution-trace facility."""

from repro.pete import Pete, assemble
from repro.trace.bus import CollectingSink, TraceBus
from repro.trace.events import RETIRE


def test_trace_disabled_by_default():
    program = assemble("main:\n nop\n halt")
    cpu = Pete()
    cpu.load(program)
    cpu.run(0)
    assert cpu.trace_log == []


def test_trace_records_every_instruction():
    program = assemble("""
    main:
        li $t0, 2
    loop:
        addiu $t0, $t0, -1
        bne $t0, $zero, loop
        .ds nop
        halt
    """)
    cpu = Pete(trace=True)
    cpu.load(program)
    stats = cpu.run(0)
    assert len(cpu.trace_log) == stats.instructions
    cycles = [entry[0] for entry in cpu.trace_log]
    assert cycles == sorted(cycles), "trace is in time order"
    texts = [entry[2] for entry in cpu.trace_log]
    assert texts.count("nop") == 2, "the delay slot ran twice"
    assert any(t.startswith("bne") for t in texts)


def test_trace_shows_loop_revisits():
    program = assemble("""
    main:
        li $t0, 3
    loop:
        addiu $t0, $t0, -1
        bne $t0, $zero, loop
        nop
        halt
    """)
    cpu = Pete(trace=True)
    cpu.load(program)
    cpu.run(0)
    loop_pc_hits = [pc for _, pc, _ in cpu.trace_log if pc == 0x4]
    assert len(loop_pc_hits) == 3


def test_mid_run_trace_attach_matches_a_traced_run_tail():
    """A tracer attached after a few instructions sees every later
    instruction: its RETIRE events equal the tail of a fully traced
    run's, cycle numbers included."""
    program = assemble("""
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
    """)
    entry = program.address_of("main")
    cpu = Pete()
    cpu.load(program)

    golden = cpu.clone()
    golden_sink = CollectingSink()
    golden.attach_tracer(TraceBus([golden_sink]))
    golden.run(entry)

    cpu.begin(entry)
    for _ in range(4):
        assert cpu.step_instruction()
    attach_cycle = cpu.cycle
    sink = CollectingSink()
    cpu.attach_tracer(TraceBus([sink]))
    while cpu.step_instruction():
        pass
    assert cpu.stats == golden.stats

    traced = [(e.cycle, e.duration, e.pc, e.detail)
              for e in sink.events if e.kind == RETIRE]
    golden_tail = [(e.cycle, e.duration, e.pc, e.detail)
                   for e in golden_sink.events
                   if e.kind == RETIRE and e.cycle >= attach_cycle]
    assert traced, "no RETIRE events after mid-run attach"
    assert traced == golden_tail
