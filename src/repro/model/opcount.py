"""Exact ECDSA field-operation counts (DESIGN.md Section 5, step 2).

The *actual* ECDSA implementation is executed with instrumented fields, so
the per-curve operation counts entering the cycle model are exact, not
estimated: a sign is one sliding-window scalar multiplication (with its
3P/5P precomputation) plus order arithmetic; a verify is one twin
multiplication plus order arithmetic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

from repro.ec.curves import get_curve
from repro.ec.point import AffinePoint
from repro.ecdsa.core import sign_digest, verify_digest
from repro.ecdsa import generate_keypair
from repro.model.units import unit

#: Field-op categories the cycle model prices.
FIELD_OPS = ("fmul", "fsqr", "fadd", "fsub", "finv")
ORDER_OPS = ("omul", "oadd", "oinv")


@dataclass(frozen=True)
class OpCounts:
    """Operation counts for one ECDSA primitive (sign or verify)."""

    label: str
    field_ops: dict[str, int]
    order_ops: dict[str, int]

    def field(self, op: str) -> int:
        return self.field_ops.get(op, 0)

    def order(self, op: str) -> int:
        return self.order_ops.get(op, 0)

    @property
    def total_field_muls(self) -> int:
        return self.field("fmul") + self.field("fsqr")


@dataclass(frozen=True)
class EcdsaOpCounts:
    sign: OpCounts
    verify: OpCounts


@lru_cache(maxsize=None)
def keypair(curve_name: str) -> tuple[int, AffinePoint]:
    """The fixed key pair every model measurement of ``curve_name``
    uses: one software scalar multiplication per curve per process."""
    return generate_keypair(get_curve(curve_name), seed=b"opcount")


@unit
def ecdsa_opcounts(curve_name: str) -> EcdsaOpCounts:
    """Measure sign/verify operation counts on the given curve.

    Uses a fixed key/digest so the recorded scalar bit patterns (and thus
    counts) are deterministic; window densities vary by <2 % across
    scalars, which is below the model's resolution.
    """
    curve = get_curve(curve_name)
    d, public = keypair(curve_name)
    digest = hashlib.sha256(b"opcount workload " + curve_name.encode()).digest()

    curve.reset_counters()
    sig = sign_digest(curve, d, digest)
    sign_counts = OpCounts(
        "sign",
        _clean(curve.field.counter.snapshot(), FIELD_OPS),
        _clean(curve.order_counter.snapshot(), ORDER_OPS),
    )

    curve.reset_counters()
    ok = verify_digest(curve, public, digest, sig)
    assert ok, "instrumented verification failed"
    verify_counts = OpCounts(
        "verify",
        _clean(curve.field.counter.snapshot(), FIELD_OPS),
        _clean(curve.order_counter.snapshot(), ORDER_OPS),
    )
    curve.reset_counters()
    return EcdsaOpCounts(sign_counts, verify_counts)


def _clean(snapshot: dict[str, int], keep: tuple[str, ...]) -> dict[str, int]:
    return {op: snapshot.get(op, 0) for op in keep}


@lru_cache(maxsize=None)
def scalar_mult_point_ops(curve_name: str) -> dict[str, int]:
    """Point-operation counts of one sliding-window scalar multiplication
    (doubles/adds), used by the Billie driver and Fig. 7.14."""
    from repro.ec.scalar import fractional_naf

    d, _ = keypair(curve_name)
    digits = fractional_naf(d)
    doubles = len(digits) - 1
    adds = sum(1 for digit in digits if digit)
    return {"doubles": doubles, "adds": adds, "precompute_adds": 3}
