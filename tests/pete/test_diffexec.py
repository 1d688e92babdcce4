"""Lock-step differential harness: state compares and seeded faults."""

import pytest

from repro.pete import Pete, assemble
from repro.pete import diffexec
from repro.pete.diffexec import (
    DiffReport,
    Divergence,
    compare_state,
    lockstep_lanes,
)


def test_compare_state_names_the_first_difference():
    program = assemble("main:\n    li $t0, 1\n    halt\n")
    a = Pete()
    a.load(program)
    a.run(program.address_of("main"))
    b = a.clone()

    assert compare_state(a, b) is None
    b.regs[9] = 0xDEAD
    divergence = compare_state(a, b)
    assert divergence is not None
    assert divergence.what == "regs[$t1]"
    b.regs[9] = a.regs[9]
    b.stats.ram_writes += 1
    divergence = compare_state(a, b)
    assert divergence.what == "stats.ram_writes"


SEEDED = """
main:
    li   $t0, 3
    li   $t1, 5
    addu $t2, $t0, $t1
    subu $t3, $t1, $t0
    halt
"""


def test_lockstep_lanes_detects_a_seeded_fault(monkeypatch):
    """A lane block compiler that corrupts one register write is caught
    at the next unit boundary, named, and shown in context."""
    pytest.importorskip("numpy")
    from repro.pete import lanes
    from repro.pete.blocks import BoundedMemo

    real = lanes.compile_lane_block

    def faulty(decs, entry_pc):
        block = real(decs, entry_pc)

        def corrupted(eng):
            block(eng)
            eng.regs[10] ^= 0x4000_0000    # the block's write of $t2

        corrupted.__lane_len__ = block.__lane_len__
        return corrupted

    # private code caches: faulty closures neither reuse real ones nor
    # outlive the test
    monkeypatch.setattr(lanes, "compile_lane_block", faulty)
    monkeypatch.setattr(lanes, "_LANE_CODE_CACHE", BoundedMemo(4096))
    monkeypatch.setattr(lanes, "_PROGRAM_MAPS", BoundedMemo(64))
    program = assemble(SEEDED)
    cores = []
    for _ in range(2):
        cpu = Pete()
        cpu.load(program)
        cores.append(cpu)
    report = lockstep_lanes(cores, program.address_of("main"),
                            label="seeded")
    assert not report.ok
    assert report.divergence.what == "lane 0: regs[$t2]"
    formatted = report.format()
    assert "DIVERGED" in formatted
    assert "->" in formatted, "disassembly context missing"


def test_report_formatting():
    report = DiffReport("demo", instructions=10, blocks=2, boundaries=5)
    assert report.ok
    assert "ok" in report.summary()
    report.divergence = Divergence("cycle", 10, 11, pc=0x40,
                                   instructions=9)
    assert not report.ok
    assert "cycle" in report.format()


def test_cli_reports_and_exits_clean(tmp_path, capsys):
    pytest.importorskip("numpy")
    out = tmp_path / "report.txt"
    rc = diffexec.main(["--kernels", "mp_add:6", "--report", str(out)])
    assert rc == 0
    assert "0 divergences" in capsys.readouterr().out
    assert "mp_add:6" in out.read_text()


def test_cli_rejects_bad_kernel_spec():
    with pytest.raises(SystemExit):
        diffexec.main(["--kernels", "os_mul"])
