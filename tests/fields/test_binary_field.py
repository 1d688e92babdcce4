"""Binary fields: carry-less arithmetic, NIST reduction, inversion."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.fields import BinaryField
from repro.fields.inversion import _poly_mul, _poly_sqr
from repro.fields.nist import (
    BINARY_TAIL_EXPONENTS,
    NIST_BINARY_POLYS,
    reduce_binary,
)
from tests.oracles import bitserial_mul, interleave_sqr

ALL_M = sorted(NIST_BINARY_POLYS)


def _edge_operands(bits: int) -> list[int]:
    """0, 1, all ones, a lone top bit, and two unreduced values."""
    ones = (1 << bits) - 1
    return [0, 1, ones, 1 << (bits - 1), (1 << bits) | 1,
            (ones << bits) | ones]


@pytest.mark.parametrize("bits", [32] + ALL_M)
def test_poly_mul_matches_bitserial(bits, rng):
    """The width-4 comb against one-bit-at-a-time multiplication."""
    edges = _edge_operands(bits)
    pairs = [(a, b) for a in edges for b in edges]
    pairs += [(rng.getrandbits(bits), rng.getrandbits(bits))
              for _ in range(40)]
    # unequal lengths, either way round: the comb tables the longer one
    pairs += [(rng.getrandbits(bits), rng.getrandbits(n))
              for n in (1, 3, 4, 5, 31, 33, 2 * bits + 1)]
    pairs += [(b, a) for a, b in pairs[-7:]]
    for a, b in pairs:
        assert _poly_mul(a, b) == bitserial_mul(a, b), (hex(a), hex(b))


@pytest.mark.parametrize("bits", [32] + ALL_M)
def test_poly_sqr_matches_interleave(bits, rng):
    """The byte-table square against the bit-interleave loop."""
    values = _edge_operands(bits)
    values += [rng.getrandbits(bits) for _ in range(40)]
    values += [rng.getrandbits(n) for n in range(1, 18)]
    for a in values:
        assert _poly_sqr(a) == interleave_sqr(a), hex(a)


@pytest.mark.parametrize("m", ALL_M)
def test_polynomials_have_expected_degree_and_tail(m):
    poly = NIST_BINARY_POLYS[m]
    assert poly.bit_length() - 1 == m
    tail = BINARY_TAIL_EXPONENTS[m]
    rebuilt = (1 << m) | sum(1 << e for e in tail)
    assert rebuilt == poly


@pytest.mark.parametrize("m", ALL_M)
def test_fast_reduction_matches_generic(m, rng):
    poly = NIST_BINARY_POLYS[m]
    for _ in range(100):
        c = rng.getrandbits(2 * m - 1)
        ref = c
        while ref.bit_length() - 1 >= m:
            ref ^= poly << (ref.bit_length() - 1 - m)
        assert reduce_binary(c, m) == ref


@pytest.mark.parametrize("m", ALL_M)
def test_field_laws(m, rng):
    f = BinaryField.nist(m)
    for _ in range(30):
        a = rng.getrandbits(m)
        b = rng.getrandbits(m)
        c = rng.getrandbits(m)
        assert f.add(a, b) == a ^ b
        assert f.sub(a, b) == f.add(a, b), "subtraction equals addition"
        assert f.add(a, a) == 0, "characteristic 2"
        assert f.neg(a) == a
        assert f.mul(a, b) == f.mul(b, a)
        # distributivity
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        # squaring is the Frobenius map: (a+b)^2 = a^2 + b^2
        assert f.sqr(f.add(a, b)) == f.add(f.sqr(a), f.sqr(b))
        assert f.sqr(a) == f.mul(a, a)


def test_example_from_paper_gf27():
    """The worked GF(2^7) examples of Section 2.1.4."""
    f = BinaryField((1 << 7) | (1 << 1) | 1)  # x^7 + x + 1
    a = 0b1011001  # x^6 + x^4 + x^3 + 1
    b = 0b0110101  # x^5 + x^4 + x^2 + 1
    assert f.add(a, b) == 0b1101100  # x^6 + x^5 + x^3 + x^2
    mul_a = 0b1001010  # x^6 + x^3 + x
    mul_b = 0b1000101  # x^6 + x^2 + 1
    assert f.mul(mul_a, mul_b) == 0b1011    # x^3 + x + 1
    sqr_in = 0b1001001  # x^6 + x^3 + 1
    assert f.sqr(sqr_in) == 0b100001        # x^5 + 1


@pytest.mark.parametrize("m", [163, 283])
def test_inversion_methods_agree(m, rng):
    f = BinaryField.nist(m)
    for _ in range(10):
        a = rng.getrandbits(m) or 1
        euclid = f.inv(a, "euclid")
        itoh = f.inv(a, "itoh-tsujii")
        assert euclid == itoh
        assert f.mul(a, euclid) == 1


def test_inversion_of_zero_raises():
    f = BinaryField.nist(163)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_trace_and_half_trace(rng):
    f = BinaryField.nist(163)
    for _ in range(5):
        a = rng.getrandbits(163)
        t = f.trace(a)
        assert t in (0, 1)
        # trace is additive
        b = rng.getrandbits(163)
        assert f.trace(f.add(a, b)) == f.trace(a) ^ f.trace(b)
    # half-trace solves z^2 + z = a when Tr(a) = 0
    for _ in range(5):
        a = rng.getrandbits(163)
        if f.trace(a) == 0:
            z = f.half_trace(a)
            assert f.add(f.sqr(z), z) == a


def test_words():
    assert BinaryField.nist(163).words() == 6
    assert BinaryField.nist(571).words() == 18


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 163) - 1),
       st.integers(min_value=0, max_value=(1 << 163) - 1))
def test_mul_matches_poly_mul_reduce(a, b):
    f = BinaryField.nist(163)
    assert f.mul(a, b) == reduce_binary(_poly_mul(a, b), 163)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 233) - 1))
def test_sqr_matches_poly_sqr(a):
    f = BinaryField.nist(233)
    assert f.sqr(a) == reduce_binary(_poly_sqr(a), 233)
