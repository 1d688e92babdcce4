"""Finite fields for asymmetric cryptography.

Two field families, matching the paper's Section 2.1:

* :class:`~repro.fields.prime.PrimeField` -- GF(p) over the five NIST
  generalized-Mersenne primes (their integer fast-reduction routines are
  in :mod:`repro.fields.nist`; products reduce with one modulo).
* :class:`~repro.fields.binary.BinaryField` -- GF(2^m) with the five NIST
  trinomials/pentanomials and their fast-reduction routines.

Both field classes expose the same operation vocabulary (``add``, ``sub``,
``mul``, ``sqr``, ``inv``, ``div``, ``neg``) and both carry an
:class:`~repro.fields.counters.OpCounter` so that higher layers can count
field operations for the cycle/energy models.
"""

from repro.fields.binary import BinaryField
from repro.fields.counters import OpCounter
from repro.fields.nist import (
    NIST_BINARY_POLYS,
    NIST_PRIMES,
    binary_field,
    prime_field,
)
from repro.fields.prime import PrimeField

__all__ = [
    "PrimeField",
    "BinaryField",
    "OpCounter",
    "NIST_PRIMES",
    "NIST_BINARY_POLYS",
    "prime_field",
    "binary_field",
]
