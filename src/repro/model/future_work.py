"""The paper's Section 8 future-work studies, carried out.

The conclusions chapter names four concrete follow-ups; each is a
configuration variant here, priced by the same system model:

1. **SRAM register file for Billie** -- "over half of Billie's energy is
   being consumed in the synthesized register file.  Thus, we would like
   to evaluate the energy consumption of Billie with a register file
   implemented in more efficient memory (SRAM) technology."
2. **Clock/power gating** -- "we plan on modeling our system such that
   we can turn off Billie when she is not in use" (and ungated clocks
   are called out for Pete and the FFAU in Sections 7.1/7.4).
3. **Accelerating the group-order inversion** -- "the protocol
   arithmetic modulo the group order (inversion specifically) becomes
   the limiting factor ... Amdahl's law strikes again.  Therefore, we
   plan on investigating various methods for accelerating the modular
   inversion."  The ``monte_oinv`` variant reconfigures Monte for the
   modulus n (its microcode is parameterized exactly for this) and runs
   the inversion as a Fermat multiplication chain.
4. **Flash program memory** -- "we would like to model our system
   assuming a flash EEPROM memory technology in place of the ROM",
   since real IMDs need field-reprogrammable firmware.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.model.system import SystemModel

#: The curves the Billie and Monte studies price; the flash study
#: prices P-192 alone.
BILLIE_CURVES = ("B-163", "B-283", "B-571")
MONTE_CURVES = ("P-192", "P-256", "P-521")
FLASH_CURVE = "P-192"
#: Every curve the four studies price.
CURVES = BILLIE_CURVES + MONTE_CURVES + (FLASH_CURVE,)


@dataclass(frozen=True)
class VariantResult:
    """One future-work variant against its paper-configuration base."""

    curve: str
    base_config: str
    variant_config: str
    base_uj: float
    variant_uj: float

    @property
    def saving_percent(self) -> float:
        return 100.0 * (1.0 - self.variant_uj / self.base_uj)


def _compare(model: SystemModel, curve: str, base: str,
             variant: str) -> VariantResult:
    return VariantResult(
        curve, base, variant,
        model.report(curve, base).total_uj,
        model.report(curve, variant).total_uj,
    )


@lru_cache(maxsize=1)
def billie_register_file_study() -> list[VariantResult]:
    """Future work #1/#2: Billie's register file and idle power.

    The SRAM file attacks the >50 % register-file share; gating attacks
    the 62 % idle time.  Combined, they address the scaling failure the
    paper diagnoses ("our binary-field accelerator does not scale well
    in terms of energy efficiency").
    """
    model = SystemModel()
    out = []
    for curve in BILLIE_CURVES:
        for variant in ("billie_sram", "billie_gated", "billie_sram_gated"):
            out.append(_compare(model, curve, "billie", variant))
    return out


@lru_cache(maxsize=1)
def monte_gating_study() -> list[VariantResult]:
    """Clock gating the FFAU while Pete runs the protocol arithmetic."""
    model = SystemModel()
    return [_compare(model, curve, "monte", "monte_gated")
            for curve in MONTE_CURVES]


@lru_cache(maxsize=1)
def order_inversion_study() -> list[VariantResult]:
    """Future work #3: map the group-order inversion onto Monte.

    Monte's constant RAM holds the modulus parameters, so pointing it at
    n instead of p is a CTC2 reconfiguration, not new hardware -- the
    payoff of the microcoded design.
    """
    model = SystemModel()
    return [_compare(model, curve, "monte", "monte_oinv")
            for curve in MONTE_CURVES]


@lru_cache(maxsize=1)
def flash_memory_study() -> list[VariantResult]:
    """Future work #4: flash program store.

    Flash reads cost ~2.6x mask-ROM reads, which roughly doubles the
    uncached baseline's energy -- and makes the instruction cache far
    more valuable than the ROM-based Section 7.5 sweep suggested.
    """
    model = SystemModel()
    out = [_compare(model, FLASH_CURVE, "baseline", "baseline_flash")]
    # the I-cache's value under flash: compare flash-without-cache
    # against flash-with-cache
    flash_nocache = model.report(FLASH_CURVE, "baseline_flash").total_uj
    flash_cache = model.report(FLASH_CURVE, "isa_ext_ic_flash").total_uj
    out.append(VariantResult(FLASH_CURVE, "baseline_flash",
                             "isa_ext_ic_flash", flash_nocache,
                             flash_cache))
    return out


def summary() -> dict[str, list[VariantResult]]:
    """All four studies, keyed by name (the bench prints this)."""
    return {
        "billie_register_file": billie_register_file_study(),
        "monte_gating": monte_gating_study(),
        "order_inversion": order_inversion_study(),
        "flash_memory": flash_memory_study(),
    }
