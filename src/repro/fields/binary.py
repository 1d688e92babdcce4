"""Binary fields GF(2^m) with NIST fast reduction.

Elements are Python ints interpreted as GF(2)[x] polynomials (bit i is the
coefficient of x^i).  Addition is XOR ("carry-less arithmetic", paper
Section 2.1.4); multiplication is polynomial multiplication (a width-4
comb) followed by reduction modulo the NIST trinomial/pentanomial;
squaring is the linear bit-interleave operation (Section 4.2.3), done a
byte at a time through the 8-bit table.
"""

from __future__ import annotations

from repro.fields.counters import OpCounter
from repro.fields.inversion import (
    _poly_mul,
    _poly_sqr,
    itoh_tsujii_inverse,
    poly_euclid_inverse,
)
from repro.fields.nist import NIST_BINARY_POLYS, reduce_binary


class BinaryField:
    """GF(2^m) arithmetic with operation counting.

    Parameters
    ----------
    poly:
        The irreducible reduction polynomial f(x), encoded as an int with
        bit i set for each term x^i.  Degree m = poly.bit_length() - 1.
    name:
        Human-readable name (``"B-163"`` for NIST fields).
    """

    _nist_cache: dict[int, "BinaryField"] = {}

    def __init__(self, poly: int, name: str | None = None) -> None:
        if poly < 2:
            raise ValueError("reduction polynomial must have degree >= 1")
        self.poly = poly
        self.m = poly.bit_length() - 1
        self.bits = self.m
        self.name = name or f"GF(2^{self.m})"
        self.counter = OpCounter()
        self._nist_m = self.m if NIST_BINARY_POLYS.get(self.m) == poly else None

    # -- construction -----------------------------------------------------

    @classmethod
    def nist(cls, m: int) -> "BinaryField":
        """Shared instance for the NIST binary field of degree m."""
        if m not in NIST_BINARY_POLYS:
            raise KeyError(f"no NIST binary field of degree {m}")
        if m not in cls._nist_cache:
            cls._nist_cache[m] = cls(NIST_BINARY_POLYS[m], name=f"B-{m}")
        return cls._nist_cache[m]

    # -- helpers -----------------------------------------------------------

    def words(self, word_bits: int = 32) -> int:
        return -(-self.m // word_bits)

    def element(self, value: int) -> int:
        return self.reduce(value)

    def contains(self, value: int) -> bool:
        return 0 <= value < (1 << self.m)

    def reduce(self, c: int) -> int:
        """Reduce a polynomial modulo f(x) (fast path for NIST fields)."""
        if self._nist_m is not None:
            return reduce_binary(c, self._nist_m)
        return self._generic_reduce(c)

    def _generic_reduce(self, c: int) -> int:
        deg_f = self.m
        while c.bit_length() - 1 >= deg_f:
            c ^= self.poly << (c.bit_length() - 1 - deg_f)
        return c

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self.counter.count("fadd")
        return a ^ b

    # In GF(2^m) subtraction *is* addition (additive inverse is identity).
    sub = add

    def neg(self, a: int) -> int:
        return a

    def mul(self, a: int, b: int) -> int:
        self.counter.count("fmul")
        return self.reduce(_poly_mul(a, b))

    def sqr(self, a: int) -> int:
        self.counter.count("fsqr")
        return self.reduce(_poly_sqr(a))

    def inv(self, a: int, method: str = "euclid") -> int:
        """Field inversion: ``"euclid"`` (software path on Pete) or
        ``"itoh-tsujii"`` (the Fermat path issued to Billie)."""
        self.counter.count("finv")
        if method == "euclid":
            return poly_euclid_inverse(a, self.poly)
        if method in ("itoh-tsujii", "fermat"):
            return itoh_tsujii_inverse(a, self.m, self.reduce)
        raise ValueError(f"unknown inversion method {method!r}")

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def trace(self, a: int) -> int:
        """Field trace Tr(a) = sum of a^(2^i); used to solve quadratics
        (needed e.g. for point decompression / curve sanity checks)."""
        t = a
        x = a
        for _ in range(self.m - 1):
            x = self.sqr(x)
            t ^= x
        assert t in (0, 1)
        return t

    def half_trace(self, a: int) -> int:
        """Half-trace: solves z^2 + z = a when m is odd and Tr(a)=0."""
        if self.m % 2 == 0:
            raise ValueError("half-trace requires odd m")
        z = a
        for _ in range((self.m - 1) // 2):
            z = self.sqr(self.sqr(z))
            z ^= a
        return z

    def __repr__(self) -> str:  # pragma: no cover
        return f"BinaryField({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BinaryField) and other.poly == self.poly

    def __hash__(self) -> int:
        return hash(("BinaryField", self.poly))
