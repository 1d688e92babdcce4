"""Prime fields GF(p).

A :class:`PrimeField` performs mathematically exact field arithmetic on
Python ints while counting operations through its
:class:`~repro.fields.counters.OpCounter`.  Products are reduced with one
modulo: on a Python int that is faster than any of the NIST folds except
P-521's, and the value is the same.

The NIST structure lives where it is priced: the word-level (limb)
multiplication and fast reduction in :mod:`repro.mp` (cross-validated
against this class and against the integer reducers in
:mod:`repro.fields.nist`) and the Pete kernels whose cycles the simulator
measures.
"""

from __future__ import annotations

from repro.fields.counters import OpCounter
from repro.fields.inversion import (
    binary_euclid_inverse,
    fermat_inverse,
)
from repro.fields.nist import NIST_PRIMES


class PrimeField:
    """GF(p) arithmetic with operation counting.

    Parameters
    ----------
    p:
        The field prime.
    name:
        Human-readable name (``"P-192"`` for NIST fields).
    """

    _nist_cache: dict[int, "PrimeField"] = {}

    def __init__(self, p: int, name: str | None = None) -> None:
        if p < 3 or p % 2 == 0:
            raise ValueError("p must be an odd prime >= 3")
        self.p = p
        self.bits = p.bit_length()
        self.name = name or f"GF({p})"
        self.counter = OpCounter()

    # -- construction -----------------------------------------------------

    @classmethod
    def nist(cls, bits: int) -> "PrimeField":
        """Shared instance for the NIST prime of the given size."""
        if bits not in NIST_PRIMES:
            raise KeyError(f"no NIST prime of {bits} bits")
        if bits not in cls._nist_cache:
            cls._nist_cache[bits] = cls(NIST_PRIMES[bits], name=f"P-{bits}")
        return cls._nist_cache[bits]

    # -- helpers -----------------------------------------------------------

    def words(self, word_bits: int = 32) -> int:
        """k = ceil(n / w): limbs needed to store a field element."""
        return -(-self.bits // word_bits)

    def element(self, value: int) -> int:
        """Canonicalize an integer into [0, p)."""
        return value % self.p

    def contains(self, value: int) -> bool:
        return 0 <= value < self.p

    def reduce_product(self, c: int) -> int:
        """Reduce a double-length product into [0, p)."""
        return c % self.p

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self.counter.count("fadd")
        t = a + b
        if t >= self.p:
            t -= self.p
        return t

    def sub(self, a: int, b: int) -> int:
        self.counter.count("fsub")
        t = a - b
        if t < 0:
            t += self.p
        return t

    def neg(self, a: int) -> int:
        self.counter.count("fsub")
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        self.counter.count("fmul")
        return self.reduce_product(a * b)

    def sqr(self, a: int) -> int:
        self.counter.count("fsqr")
        return self.reduce_product(a * a)

    def inv(self, a: int, method: str = "euclid") -> int:
        """Field inversion.

        ``method`` selects the paper's software path (``"euclid"``, the
        binary extended Euclidean algorithm) or the accelerator path
        (``"fermat"``).
        """
        self.counter.count("finv")
        if method == "euclid":
            return binary_euclid_inverse(a, self.p)
        if method == "fermat":
            return fermat_inverse(a, self.p)
        raise ValueError(f"unknown inversion method {method!r}")

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- misc ----------------------------------------------------------------

    def half(self, a: int) -> int:
        """a/2 mod p via the shift trick (used by some EC formulas)."""
        if a % 2 == 0:
            return a // 2
        return (a + self.p) // 2

    def __repr__(self) -> str:  # pragma: no cover
        return f"PrimeField({self.name}, {self.bits} bits)"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))
