"""The scalar-loop kernels run correctly on Pete and differ in shape.

Correctness comes from the runner (result checked against Python);
the shape claim -- double-and-add's cycle count depends on the scalar's
Hamming weight while the ladder's does not -- is the dynamic companion
to the static classification in ``tests/analysis/test_taint.py``.
"""

from repro.kernels.codegen import DST_OFF
from repro.kernels.runner import KernelRunner
from repro.pete.memory import RAM_BASE


def _cycles(name, scalar, value=0x12345678, nbits=8):
    """Run the prepared ``name`` core on ``scalar`` and ``value``
    instead of the drawn ones."""
    cpu, entry = KernelRunner().prepare(name, nbits)
    cpu.set_reg("a1", scalar)
    cpu.set_reg("a2", value)
    cpu.run(entry)
    got = cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 1)[0]
    assert got == (scalar * value) & 0xFFFFFFFF
    return cpu.stats.cycles


def test_runner_validates_scalar_daa():
    result = KernelRunner().measure("scalar_daa", 8)
    assert result.cycles > 0


def test_runner_validates_scalar_ladder():
    result = KernelRunner().measure("scalar_ladder", 8)
    assert result.cycles > 0


def test_daa_cycles_depend_on_hamming_weight():
    light = _cycles("scalar_daa", 0x01)   # weight 1
    heavy = _cycles("scalar_daa", 0xFF)   # weight 8
    assert heavy > light


def test_ladder_cycles_independent_of_scalar():
    cycles = {_cycles("scalar_ladder", s)
              for s in (0x00, 0x01, 0x55, 0xAA, 0xFF)}
    assert len(cycles) == 1


def test_kernels_agree_with_each_other():
    for scalar in (0, 1, 0x37, 0xC2, 0xFF):
        daa = _cycles("scalar_daa", scalar)
        lad = _cycles("scalar_ladder", scalar)
        assert daa > 0 and lad > 0
