"""Billie: functional units, hazards, queue and digit-serial timing."""

import pytest

from repro.accel.billie import Billie, BillieConfig
from repro.accel.digit_serial import (
    digit_serial_cycles,
    digit_serial_mul,
    hardwired_square,
    squarer_xor_gates,
)
from repro.fields.binary import BinaryField
from repro.fields.nist import NIST_BINARY_POLYS
from tests.oracles import algorithm8_mul, fig513_square

ALL_M = sorted(NIST_BINARY_POLYS)


@pytest.fixture
def billie():
    return Billie()


@pytest.fixture
def field():
    return BinaryField.nist(163)


def test_digit_serial_matches_field(field, rng):
    for digit in (1, 2, 3, 4, 8):
        for _ in range(5):
            a = rng.getrandbits(163)
            b = rng.getrandbits(163)
            result = digit_serial_mul(a, b, 163, digit)
            assert result.value == field.mul(a, b)
            assert result.cycles == digit_serial_cycles(163, digit)


@pytest.mark.parametrize("m", ALL_M)
@pytest.mark.parametrize("digit", [1, 2, 3, 4, 8])
def test_digit_serial_matches_algorithm8(m, digit, rng):
    """Values and cycles equal the cycle-by-cycle loop, including a
    multiplier with bits above the ceil(m/D)*D the unit scans and a
    multiplicand of at least 2^m."""
    scanned = -(-m // digit) * digit
    operands = [(rng.getrandbits(m), rng.getrandbits(m)) for _ in range(4)]
    operands += [
        (rng.getrandbits(m), rng.getrandbits(m + 12)),
        (rng.getrandbits(m), (1 << scanned) | (1 << (scanned + 5))),
        ((1 << m) | rng.getrandbits(m), rng.getrandbits(m)),
        (rng.getrandbits(2 * m), rng.getrandbits(2 * m)),
        (0, rng.getrandbits(m)),
        ((1 << m) - 1, (1 << scanned) - 1),
    ]
    for a, b in operands:
        result = digit_serial_mul(a, b, m, digit)
        assert (result.value, result.cycles) == \
            algorithm8_mul(a, b, m, digit), (hex(a), hex(b))


@pytest.mark.parametrize("m", ALL_M)
def test_hardwired_square_matches_fig513(m, rng):
    values = [0, 1, (1 << m) - 1, 1 << m, rng.getrandbits(2 * m)]
    values += [rng.getrandbits(m) for _ in range(8)]
    for a in values:
        assert hardwired_square(a, m) == fig513_square(a, m), hex(a)


def test_digit_serial_cycle_model():
    assert digit_serial_cycles(163, 1) == 165
    assert digit_serial_cycles(163, 3) == 57
    assert digit_serial_cycles(163, 8) == 23
    with pytest.raises(KeyError):
        digit_serial_mul(1, 1, 200)


def test_hardwired_square(field, rng):
    for m in (163, 283, 571):
        f = BinaryField.nist(m)
        for _ in range(5):
            a = rng.getrandbits(m)
            assert hardwired_square(a, m) == f.sqr(a)


def test_squarer_gate_estimate_scales():
    assert squarer_xor_gates(163) < squarer_xor_gates(571)


def test_billie_register_ops(billie, field, rng):
    a = rng.getrandbits(163)
    b = rng.getrandbits(163)
    billie.issue_load(1, a)
    billie.issue_load(2, b)
    billie.issue_mul(3, 1, 2)
    billie.issue_sqr(4, 1)
    billie.issue_add(5, 1, 2)
    assert billie.regs[3] == field.mul(a, b)
    assert billie.regs[4] == field.sqr(a)
    assert billie.regs[5] == a ^ b
    value, _ = billie.issue_store(3)
    assert value == field.mul(a, b)


def test_billie_rejects_unknown_field():
    with pytest.raises(KeyError):
        Billie(BillieConfig(m=200))


def test_data_hazard_serializes(billie, rng):
    """A dependent op waits for the producer's write-back."""
    billie.issue_load(1, rng.getrandbits(163))
    billie.issue_load(2, rng.getrandbits(163))
    first_done = billie.issue_mul(3, 1, 2)
    second_done = billie.issue_mul(4, 3, 2)  # reads r3
    assert second_done >= first_done + billie.config.mul_cycles


def test_independent_units_overlap(billie, rng):
    """The adder and squarer run beside the multiplier (Fig. 5.12)."""
    billie.issue_load(1, rng.getrandbits(163))
    billie.issue_load(2, rng.getrandbits(163))
    mul_done = billie.issue_mul(3, 1, 2)
    add_done = billie.issue_add(4, 1, 2)
    sqr_done = billie.issue_sqr(5, 2)
    assert add_done < mul_done
    assert sqr_done < mul_done


def test_structural_hazard_same_unit(billie, rng):
    billie.issue_load(1, rng.getrandbits(163))
    billie.issue_load(2, rng.getrandbits(163))
    first = billie.issue_add(3, 1, 2)
    second = billie.issue_add(4, 1, 2)
    assert second >= first, "one adder: back-to-back adds serialize"


def test_queue_depth_limits_runahead(rng):
    shallow = Billie(BillieConfig(m=163, queue_depth=1))
    shallow.issue_load(1, rng.getrandbits(163))
    shallow.issue_load(2, rng.getrandbits(163))
    for i in range(6):
        shallow.issue_mul(3, 1, 2)
    assert shallow.stats.queue_stall_cycles > 0


def test_load_cycles_scale_with_field():
    assert Billie(BillieConfig(m=571)).config.load_cycles > \
        Billie(BillieConfig(m=163)).config.load_cycles


def test_mul_cycles_scale_with_field_and_digit():
    assert BillieConfig(m=571).mul_cycles > BillieConfig(m=163).mul_cycles
    assert BillieConfig(m=163, digit=8).mul_cycles < \
        BillieConfig(m=163, digit=1).mul_cycles


def test_sync_and_reset(billie, rng):
    billie.issue_load(1, rng.getrandbits(163))
    billie.issue_mul(2, 1, 1)
    done = billie.sync()
    assert done == billie.completion_time()
    billie.reset_time()
    assert billie.now == 0
    assert billie.stats.mul_ops == 0


def test_stats(billie, rng):
    billie.issue_load(1, rng.getrandbits(163))
    billie.issue_mul(2, 1, 1)
    billie.issue_sqr(3, 2)
    billie.issue_add(4, 2, 3)
    billie.issue_store(4)
    assert billie.stats.mul_ops == 1
    assert billie.stats.sqr_ops == 1
    assert billie.stats.add_ops == 1
    assert billie.stats.loads == 1
    assert billie.stats.stores == 1
    assert billie.stats.ram_words == 2 * 6
