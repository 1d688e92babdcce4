"""Digit-serial GF(2^m) multiplication (paper Algorithm 8, Section 5.5.3).

Billie's multiplier iterates over the multiplier D bits ("one digit") at a
time: each cycle it adds B_i * a(x) into the accumulator while shifting
the multiplicand left by D and reducing it modulo f(x).  The digit width D
trades area/cycle-time for cycles per multiplication; prior work found
D = 3 energy-optimal (Kumar/Wollinger/Paar), and the paper adopts that.

A hardwired squarer (Fig. 5.13) computes the bit-interleave + reduction in
a single cycle; its XOR-tree structure is derived here from the reduction
polynomial so that its gate count can feed the energy model.

The units' *values* come from the functional field arithmetic
(:mod:`repro.fields`): Algorithm 8 accumulates B_i * a * x^(Di) mod f(x)
and reduces at the end, so it returns the reduced product of a and the
multiplier bits it scans, whatever order the hardware adds them in.  Its
*cost* comes from :func:`digit_serial_cycles`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fields.inversion import _poly_mul, _poly_sqr
from repro.fields.nist import (
    BINARY_TAIL_EXPONENTS,
    NIST_BINARY_POLYS,
    reduce_binary,
)


@dataclass(frozen=True)
class DigitSerialResult:
    value: int
    cycles: int


def digit_serial_mul(a: int, b: int, m: int, digit: int = 3
                     ) -> DigitSerialResult:
    """Algorithm 8: c = a*b mod f(x), one digit of b per cycle.

    The unit scans ceil(m/D) digits, so multiplier bits at and above
    ceil(m/D)*D never enter the product.
    """
    if m not in NIST_BINARY_POLYS:
        raise KeyError(f"no NIST binary field of degree {m}")
    scanned = (1 << (-(-m // digit) * digit)) - 1
    return DigitSerialResult(reduce_binary(_poly_mul(a, b & scanned), m),
                             digit_serial_cycles(m, digit))


def digit_serial_cycles(m: int, digit: int) -> int:
    """Cycles for one multiplication: ceil(m/D) iterations plus one
    final-reduction cycle plus one setup cycle."""
    return -(-m // digit) + 2


def hardwired_square(a: int, m: int) -> int:
    """Single-cycle squaring: interleave zeros, then fold (Fig. 5.13)."""
    return reduce_binary(_poly_sqr(a), m)


def squarer_xor_gates(m: int) -> int:
    """Estimated 2-input XOR count of the hardwired squaring unit.

    Each of the ~m/2 folded high bits lands on len(tail) output taps; the
    estimate feeds the Billie area/power model.
    """
    tail = BINARY_TAIL_EXPONENTS[m]
    folded_bits = m - 1  # bits m..2m-2 of the interleaved square
    return folded_bits * len(tail) // 2 + m // 2
