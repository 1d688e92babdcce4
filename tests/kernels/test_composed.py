"""Composed whole-field-operation programs on Pete."""


from repro.fields import BinaryField, PrimeField
from repro.kernels.codegen import A_OFF, B_OFF, DST_OFF
from repro.kernels.runner import shared_runner
from repro.model.costs import software_costs
from repro.mp.words import from_int, to_int
from repro.pete.memory import RAM_BASE


def _fmul(name, a, b):
    """Run the prepared ``name`` core on operands a, b instead of the
    drawn ones; returns ``(value, cycles)``."""
    cpu, entry = shared_runner().prepare(name, 6)
    cpu.mem.write_ram_words(RAM_BASE + A_OFF, from_int(a, 6))
    cpu.mem.write_ram_words(RAM_BASE + B_OFF, from_int(b, 6))
    cpu.run(entry)
    return (to_int(cpu.mem.read_ram_words(RAM_BASE + DST_OFF, 6)),
            cpu.stats.cycles)


def test_fmul_p192_correct(rng):
    f = PrimeField.nist(192)
    for _ in range(5):
        a, b = rng.randrange(f.p), rng.randrange(f.p)
        value, _ = _fmul("fmul_p192", a, b)
        assert value == f.mul(a, b)


def test_fmul_p192_edge_operands():
    f = PrimeField.nist(192)
    for a, b in [(0, 5), (1, f.p - 1), (f.p - 1, f.p - 1), (2, 2)]:
        assert _fmul("fmul_p192", a, b)[0] == f.mul(a, b)


def test_fmul_b163_correct(rng):
    f = BinaryField.nist(163)
    for _ in range(5):
        a, b = rng.getrandbits(163), rng.getrandbits(163)
        value, _ = _fmul("fmul_b163", a, b)
        assert value == f.mul(a, b)


def test_fmul_b163_edge_operands():
    f = BinaryField.nist(163)
    top = (1 << 163) - 1
    for a, b in [(0, top), (1, top), (top, top)]:
        assert _fmul("fmul_b163", a, b)[0] == f.mul(a, b)


def test_composition_overhead_is_small(rng):
    """The measured whole-function cost is the kernel costs plus modest
    call glue -- the analytic model's overhead assumption."""
    runner = shared_runner()
    a, b = rng.getrandbits(192), rng.getrandbits(192)
    _, cycles = _fmul("fmul_p192", a, b)
    parts = (runner.measure("os_mul", 6).cycles
             + runner.measure("red_p192", 6).cycles)
    glue = cycles - parts
    assert 0 < glue < 80, f"call glue measured at {glue} cycles"


def test_model_cost_brackets_measurement(rng):
    """The cost model's baseline fmul (kernel + calibrated C++ overhead)
    must upper-bound the hand-written composition and stay within ~2x
    of it (compiled code is slower than hand-scheduled assembly, not
    an order of magnitude slower)."""
    a, b = rng.getrandbits(192), rng.getrandbits(192)
    _, measured = _fmul("fmul_p192", a, b)
    modeled = software_costs("P-192", "baseline")["fmul"].cycles
    assert measured < modeled < 2.0 * measured
