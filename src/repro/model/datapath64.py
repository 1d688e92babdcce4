"""The 64-bit-datapath question (paper Section 2.2 / Section 8).

"We currently utilize a 32-bit datapath for our processor, but for
future work, we would like to investigate the energy benefit of using a
64-bit processor."  The FFAU study (Section 7.9, reproduced in
Fig. 7.15) answers this for the accelerator; this module extends the
question to the *software* configurations with an explicit, documented
estimation model -- not a simulation, since Pete's ISA is 32-bit.

Estimation model
----------------

A w=64 core halves the word count k, so:

* multiplication kernels run k'^2 = (k/2)^2 inner iterations -- one
  quarter of the word products -- but each 64x64 product on a
  Karatsuba-style multi-cycle unit needs three 33x33 partial products
  where the 32-bit unit needs three 17x17s; we charge an issue latency
  of 6 cycles (vs 4) and the same per-iteration instruction overhead
  (loads/adds/stores are word ops either way);
* O(k) passes (additions, reductions, copies) halve;
* the clock period is assumed unchanged (the paper's 3 ns has slack;
  a 64-bit adder at 45 nm fits), and the core's dynamic energy per
  cycle grows by ``CORE_ENERGY_FACTOR_64`` (wider register file,
  datapath and buses -- the dominant adder/mux structures roughly
  double, the control does not).

These assumptions are exactly the kind the paper's Section 7.9 analysis
applies to the FFAU, where they are *validated*: the measured 64-bit
FFAU is 2.13-2.9x faster than the 32-bit one at equal key sizes with
2.4x the dynamic power -- our software model uses the same structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.model.costs import software_costs
from repro.model.opcount import ecdsa_opcounts
from repro.model.system import ECDSA_FIXED_CYCLES, SystemModel

#: 64-bit multiply issue latency on the widened Karatsuba unit.
MULT_LATENCY_64 = 6
MULT_LATENCY_32 = 4

#: dynamic energy per active cycle, 64-bit core vs 32-bit core.  The
#: FFAU's measured scaling (Table 7.3: 660 -> 1473 uW, 2.23x) bounds it
#: from above since Pete carries proportionally more width-independent
#: control; we adopt 1.8x.
CORE_ENERGY_FACTOR_64 = 1.8


@dataclass(frozen=True)
class Datapath64Estimate:
    curve: str
    config: str
    cycles_32: float
    cycles_64: float
    energy_32_uj: float
    energy_64_uj: float

    @property
    def speedup(self) -> float:
        return self.cycles_32 / self.cycles_64

    @property
    def energy_factor(self) -> float:
        """>1 means the 64-bit machine saves energy."""
        return self.energy_32_uj / self.energy_64_uj


def _scale_cycles(op: str, cycles32: float, is_mul: bool) -> float:
    """Apply the structural scaling to one op's 32-bit cycle cost."""
    if is_mul:
        # quarter the inner iterations; each iteration carries two more
        # multiplier-latency cycles that static scheduling cannot fully
        # hide in the tight product-scanning loop
        per_iter_penalty = (MULT_LATENCY_64 - MULT_LATENCY_32) / 8.0
        return cycles32 * 0.25 * (1.0 + per_iter_penalty)
    # O(k) work halves
    return cycles32 * 0.5


@lru_cache(maxsize=None)
def estimate(curve_name: str, config_name: str = "baseline"
             ) -> Datapath64Estimate:
    """Estimate a 64-bit Pete's cycles/energy for one configuration."""
    model = SystemModel()
    counts = ecdsa_opcounts(curve_name)
    costs = software_costs(curve_name, config_name)

    def primitive_cycles64(primitive) -> float:
        total = ECDSA_FIXED_CYCLES * 0.85  # hashing shrinks a little
        ops = {**primitive.field_ops, **primitive.order_ops}
        for op, n in ops.items():
            if not n:
                continue
            is_mul = op in ("fmul", "fsqr", "omul")
            total += n * _scale_cycles(op, costs[op].cycles, is_mul)
        return total

    cycles64 = (primitive_cycles64(counts.sign)
                + primitive_cycles64(counts.verify))
    report32 = model.report(curve_name, config_name)
    cycles32 = report32.cycles
    # energy: core scales by the width factor on the shortened runtime;
    # ROM/RAM/static scale with the new cycle count
    core_uj = report32.component_uj("Pete")
    other_uj = report32.total_uj - core_uj
    ratio = cycles64 / cycles32
    energy64 = (core_uj * ratio * CORE_ENERGY_FACTOR_64
                + other_uj * ratio)
    return Datapath64Estimate(curve_name, config_name, cycles32, cycles64,
                              report32.total_uj, energy64)


#: The prime key sizes :func:`study` estimates.
CURVES = ("P-192", "P-256", "P-384", "P-521")


def study(config: str = "baseline") -> dict[str, Datapath64Estimate]:
    """The Section 8 question across the prime key sizes."""
    return {curve: estimate(curve, config) for curve in CURVES}
