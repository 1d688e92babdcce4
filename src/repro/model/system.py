"""Whole-operation latency and energy model (DESIGN.md Section 5).

``SystemModel`` produces, for any (curve, configuration) pair, the cycle
count and the activity vector of one ECDSA sign or verify, then converts
activity into an :class:`~repro.energy.accounting.EnergyReport` using the
calibrated coefficients.  Software configurations compose measured kernel
costs with exact operation counts; the Monte and Billie paths use their
coprocessor timing machines directly.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields as dc_fields
from functools import lru_cache

from repro.accel.billie import Billie, BillieConfig
from repro.accel.monte import Monte
from repro.ec.curves import get_curve
from repro.energy.accounting import EnergyBreakdown, EnergyReport
from repro.energy.calibration import CALIBRATION, Calibration
from repro.energy.components import FFAUPower
from repro.energy.technology import SYSTEM_CLOCK_NS
from repro.fields.inversion import fermat_prime_opcounts
from repro.kernels.catalog import KernelMismatch
from repro.model.configs import MicroarchConfig, get_config
from repro.model.costs import OpCost, software_costs
from repro.model.icache_model import cache_study
from repro.model.opcount import ecdsa_opcounts, keypair
from repro.model.units import unit

#: Fixed per-primitive software cycles outside the big-number math:
#: SHA-256 of the message, nonce derivation, harness glue.
ECDSA_FIXED_CYCLES = 14_000.0

#: Montgomery-domain conversions per primitive when Monte is used
#: (operands in, result out), charged as extra accelerator
#: multiplications.
MONT_DOMAIN_MULS = 8

#: Pete instructions spent issuing/steering one accelerated field op.
MONTE_ISSUE_INSTRS = 6.0
#: Operand-load reuse achieved by Monte's forwarding path inside point
#: routines (a result is often the next op's operand).
MONTE_REUSE_FRACTION = 0.5


@dataclass
class Activity:
    """Event counts of one simulated primitive."""

    cycles: float = 0.0
    pete_active: float = 0.0
    pete_stall: float = 0.0
    rom_word_reads: float = 0.0
    rom_line_reads: float = 0.0
    ram_reads: float = 0.0
    ram_writes: float = 0.0
    icache_accesses: float = 0.0
    icache_fills: float = 0.0
    # Monte
    ffau_busy: float = 0.0
    ffau_idle: float = 0.0
    dma_words: float = 0.0
    monte_issues: float = 0.0
    # Billie
    billie_busy: float = 0.0
    billie_idle: float = 0.0
    billie_ram_words: float = 0.0


@dataclass(frozen=True)
class OperationLatency:
    """Sign/verify cycle counts (Tables 7.1 / 7.2)."""

    curve: str
    config: str
    sign_cycles: float
    verify_cycles: float

    @property
    def total_cycles(self) -> float:
        return self.sign_cycles + self.verify_cycles


class SystemModel:
    """The paper's evaluation engine."""

    def __init__(self, calibration: Calibration = CALIBRATION) -> None:
        self.cal = calibration

    @property
    def fingerprint(self) -> str:
        """Content hash of the calibration in effect (cache identity)."""
        return self.cal.fingerprint()

    # ------------------------------------------------------------------
    # Activity synthesis
    # ------------------------------------------------------------------

    def activity(self, curve_name: str, config: MicroarchConfig | str,
                 primitive: str, ideal_icache: bool = False) -> Activity:
        if isinstance(config, str):
            config = get_config(config)
        act = _sum_parts(self.activity_parts(curve_name, config, primitive))
        act.pete_stall = max(0.0, act.cycles - act.pete_active)
        if config.accelerator == "monte":
            act.ffau_idle = max(0.0, act.cycles - act.ffau_busy)
        elif config.accelerator == "billie":
            act.billie_idle = max(0.0, act.cycles - act.billie_busy)
        self._apply_fetch_path(act, config, ideal_icache)
        return act

    def activity_parts(self, curve_name: str,
                       config: MicroarchConfig | str,
                       primitive: str) -> dict[str, Activity]:
        """Per-operation-class decomposition of one primitive's activity.

        The parts (one per field/order operation class plus the fixed
        SHA-256/glue overhead) sum -- in insertion order -- to exactly
        the accumulation :meth:`activity` performs, *before* the
        stall/idle finalization and the fetch-path conversion, which are
        whole-run quantities.  :mod:`repro.trace.opprofile` prices the
        parts into the per-symbol energy profile of a full primitive.
        """
        if isinstance(config, str):
            config = get_config(config)
        self._check_support(curve_name, config)
        if config.accelerator == "monte":
            return self._monte_parts(curve_name, config, primitive)
        if config.accelerator == "billie":
            return self._billie_parts(curve_name, config, primitive)
        return self._software_parts(curve_name, config, primitive)

    @staticmethod
    def _check_support(curve_name: str, config: MicroarchConfig) -> None:
        is_binary = curve_name.startswith("B")
        if is_binary and not config.supports_binary:
            raise ValueError(f"{config.name} does not support binary fields")
        if not is_binary and not config.supports_prime:
            raise ValueError(f"{config.name} does not support prime fields")

    # -- software path -------------------------------------------------------

    def _software_parts(self, curve_name: str, config: MicroarchConfig,
                        primitive: str) -> dict[str, Activity]:
        counts = getattr(ecdsa_opcounts(curve_name), primitive)
        costs = software_costs(curve_name, config)
        parts: dict[str, Activity] = {}
        for op, n in {**counts.field_ops, **counts.order_ops}.items():
            if not n:
                continue
            cost: OpCost = costs[op].scaled(n)
            part = parts[op] = Activity()
            part.cycles = cost.cycles
            part.pete_active = cost.instructions
            part.ram_reads = cost.ram_reads
            part.ram_writes = cost.ram_writes
        fixed = parts["fixed"] = Activity()
        fixed.cycles = ECDSA_FIXED_CYCLES
        fixed.pete_active = 0.92 * ECDSA_FIXED_CYCLES
        fixed.ram_reads = 0.2 * ECDSA_FIXED_CYCLES
        return parts

    # -- Monte path ------------------------------------------------------------

    def _monte_parts(self, curve_name: str, config: MicroarchConfig,
                     primitive: str) -> dict[str, Activity]:
        curve = get_curve(curve_name)
        counts = getattr(ecdsa_opcounts(curve_name), primitive)
        monte = _shared_monte(curve.field.p)
        k = monte.k
        mul_eff = monte.field_op_pattern_cycles("mul", MONTE_REUSE_FRACTION)
        add_eff = monte.field_op_pattern_cycles("add", MONTE_REUSE_FRACTION)
        mul_ffau = monte.ffau.montmul_cycles(k)
        add_ffau = monte.ffau.addsub_cycles(k)

        n_mul = (counts.field("fmul") + counts.field("fsqr")
                 + MONT_DOMAIN_MULS)
        n_add = counts.field("fadd") + counts.field("fsub")
        # Fermat inversion expands into FFAU multiplications
        inv_sqr, inv_mul = fermat_prime_opcounts(curve.field.p)
        n_mul += counts.field("finv") * (inv_sqr + inv_mul)

        parts: dict[str, Activity] = {}
        field = parts["field-ops (Monte)"] = Activity()
        ops = n_mul + n_add
        field.cycles = n_mul * mul_eff + n_add * add_eff
        field.ffau_busy = n_mul * mul_ffau + n_add * add_ffau
        field.monte_issues = 4.0 * ops        # lda/ldb/op/st stream
        field.dma_words = ops * (2.0 - MONTE_REUSE_FRACTION + 1.0) * k
        field.pete_active = MONTE_ISSUE_INSTRS * ops
        field.ram_reads = ops * (2.0 - MONTE_REUSE_FRACTION) * k
        field.ram_writes = ops * k
        # order arithmetic runs on Pete with baseline software costs --
        # unless the Section 8 variant maps the group-order inversion
        # onto Monte (reconfigured for the modulus n) as Fermat muls
        sw_costs = software_costs(curve_name, "baseline")
        for op, n in counts.order_ops.items():
            if not n:
                continue
            part = parts[op] = Activity()
            if op == "oinv" and config.monte_order_inversion:
                inv_sqr_n, inv_mul_n = fermat_prime_opcounts(curve.n)
                muls = n * (inv_sqr_n + inv_mul_n + 2)  # + domain swap
                part.cycles = muls * mul_eff
                part.ffau_busy = muls * mul_ffau
                part.monte_issues = 4.0 * muls
                part.dma_words = muls * 1.0 * k  # operands mostly forwarded
                part.pete_active = MONTE_ISSUE_INSTRS * muls
                continue
            cost = sw_costs[op].scaled(n)
            part.cycles = cost.cycles
            part.pete_active = cost.instructions
            part.ram_reads = cost.ram_reads
            part.ram_writes = cost.ram_writes
        fixed = parts["fixed"] = Activity()
        fixed.cycles = ECDSA_FIXED_CYCLES
        fixed.pete_active = 0.92 * ECDSA_FIXED_CYCLES
        return parts

    # -- Billie path --------------------------------------------------------------

    def _billie_parts(self, curve_name: str, config: MicroarchConfig,
                      primitive: str) -> dict[str, Activity]:
        counts = getattr(ecdsa_opcounts(curve_name), primitive)
        run = _billie_primitive_run(curve_name, primitive)
        parts: dict[str, Activity] = {}
        scalar = parts["scalar-mul (Billie)"] = Activity()
        scalar.cycles = run["cycles"]
        scalar.billie_busy = run["busy_cycles"]
        scalar.billie_ram_words = run["ram_words"]
        scalar.pete_active = run["instructions"]
        scalar.ram_reads = run["ram_words"] * 0.5
        scalar.ram_writes = run["ram_words"] * 0.5
        # order arithmetic on Pete
        sw_costs = software_costs(curve_name, "baseline")
        for op, n in counts.order_ops.items():
            if not n:
                continue
            cost = sw_costs[op].scaled(n)
            part = parts[op] = Activity()
            part.cycles = cost.cycles
            part.pete_active = cost.instructions
            part.ram_reads = cost.ram_reads
            part.ram_writes = cost.ram_writes
        fixed = parts["fixed"] = Activity()
        fixed.cycles = ECDSA_FIXED_CYCLES
        fixed.pete_active = 0.92 * ECDSA_FIXED_CYCLES
        return parts

    # -- fetch path ---------------------------------------------------------------

    def _apply_fetch_path(self, act: Activity, config: MicroarchConfig,
                          ideal_icache: bool) -> None:
        """Turn instruction counts into ROM/cache traffic."""
        fetches = act.pete_active
        if ideal_icache:
            act.icache_accesses = fetches
            return
        if config.icache is None:
            act.rom_word_reads += fetches
            return
        study = cache_study(config.icache.size_bytes,
                            config.icache.prefetch)
        act.icache_accesses = fetches
        miss_ratio = study.misses / study.accesses
        stall_ratio = study.effective_miss_rate
        act.icache_fills = fetches * miss_ratio
        act.rom_line_reads += fetches * (study.rom_line_reads
                                         / study.accesses)
        extra_stalls = fetches * stall_ratio * config.icache.miss_penalty
        act.cycles += extra_stalls
        act.pete_stall += extra_stalls

    # ------------------------------------------------------------------
    # Latency (Tables 7.1 / 7.2)
    # ------------------------------------------------------------------

    def latency(self, curve_name: str, config: MicroarchConfig | str
                ) -> OperationLatency:
        config_obj = get_config(config) if isinstance(config, str) else config
        sign = self.activity(curve_name, config_obj, "sign")
        verify = self.activity(curve_name, config_obj, "verify")
        return OperationLatency(curve_name, config_obj.name,
                                sign.cycles, verify.cycles)

    def snapshot(self, curve_name: str, config: MicroarchConfig | str
                 ) -> dict:
        """Machine-readable quantities of one (curve, config) pair for
        the regression ledger and gate: sign/verify cycles, sign+verify
        energy, the per-component energy split, and per-operation-class
        cycles from :meth:`activity_parts`."""
        config_obj = get_config(config) if isinstance(config, str) else config
        lat = self.latency(curve_name, config_obj)
        rep = self.report(curve_name, config_obj)
        return {
            "sign_cycles": lat.sign_cycles,
            "verify_cycles": lat.verify_cycles,
            "energy_uj": rep.total_uj,
            "components": {c: rep.component_uj(c)
                           for c in rep.breakdown.components},
            "parts": {part: act.cycles for part, act in
                      self.activity_parts(curve_name, config_obj,
                                          "sign").items()},
        }

    # ------------------------------------------------------------------
    # Energy
    # ------------------------------------------------------------------

    def report(self, curve_name: str, config: MicroarchConfig | str,
               primitive: str = "sign+verify",
               ideal_icache: bool = False) -> EnergyReport:
        config_obj = get_config(config) if isinstance(config, str) else config
        if primitive == "sign+verify":
            sign = self.report(curve_name, config_obj, "sign", ideal_icache)
            verify = self.report(curve_name, config_obj, "verify",
                                 ideal_icache)
            return sign.merged(
                verify, f"{curve_name}/{config_obj.name}/sign+verify")
        act = self.activity(curve_name, config_obj, primitive, ideal_icache)
        return self._energy(curve_name, config_obj, act,
                            f"{curve_name}/{config_obj.name}/{primitive}",
                            ideal_icache)

    def _energy(self, curve_name: str, config: MicroarchConfig,
                act: Activity, label: str,
                ideal_icache: bool) -> EnergyReport:
        cal = self.cal
        curve = get_curve(curve_name)
        time_s = act.cycles * SYSTEM_CLOCK_NS * 1e-9
        bd = EnergyBreakdown()

        # --- Pete core
        pete_factor = 1.0
        if config.prime_isa_ext:
            pete_factor *= cal.pete.isa_ext_factor
        if config.binary_isa_ext:
            pete_factor *= cal.pete.binary_ext_factor
        bd.add_dynamic("Pete", (act.pete_active * cal.pete.active_pj
                                * pete_factor
                                + act.pete_stall * cal.pete.stall_pj) / 1e3)
        bd.add_static("Pete", cal.pete.static_uw * time_s * 1e3)

        # --- program memory (mask ROM, or flash for the Section 8 study)
        if config.flash_program_memory:
            from repro.energy.memory_model import flash_program_memory

            rom32 = flash_program_memory(line_port=False)
            rom128 = flash_program_memory(line_port=True)
        else:
            rom32 = cal.rom(line_port=False)
            rom128 = cal.rom(line_port=True)
        bd.add_dynamic("ROM", (act.rom_word_reads * rom32.read_energy_pj()
                               + act.rom_line_reads
                               * rom128.read_energy_pj(128)) / 1e3)

        # --- RAM (dual-ported when an accelerator shares it)
        ram = cal.ram(dual_port=config.accelerator is not None)
        bd.add_dynamic("RAM", (act.ram_reads * ram.read_energy_pj()
                               + act.ram_writes * ram.write_energy_pj())
                       / 1e3)
        bd.add_static("RAM", ram.leakage_uw() * time_s * 1e3)

        # --- uncore + instruction cache
        if config.icache is not None or ideal_icache:
            size = (config.icache.size_bytes if config.icache is not None
                    else 4096)
            icache = cal.icache(size)
            access_pj = icache.read_energy_pj()
            if (config.icache is not None and config.icache.prefetch
                    and not ideal_icache):
                # stream-buffer tag compare on every fetch
                access_pj *= 1.12
            nj = (act.icache_accesses * access_pj
                  + act.icache_fills * icache.write_energy_pj(128)) / 1e3
            if not ideal_icache:
                nj += act.pete_active * cal.uncore.active_pj / 1e3
                bd.add_static("Uncore", cal.uncore.static_uw * time_s * 1e3)
            bd.add_dynamic("Uncore", nj)
            bd.add_static("Uncore", icache.leakage_uw() * time_s * 1e3)

        # --- Monte
        if config.accelerator == "monte":
            ffau_power = FFAUPower(32)
            idle_pj = (cal.monte.ffau_idle_gated_pj if config.clock_gating
                       else cal.monte.ffau_idle_pj)
            dyn = (act.ffau_busy
                   * ffau_power.dynamic_pj_per_cycle(curve.bits)
                   + act.ffau_idle * idle_pj
                   + act.dma_words * cal.monte.dma_word_pj
                   + act.monte_issues * cal.monte.issue_pj) / 1e3
            bd.add_dynamic("Monte", dyn)
            static_uw = cal.monte.static_uw
            if config.clock_gating:
                # power gating also cuts the idle fraction's leakage
                idle_frac = act.ffau_idle / max(1.0, act.cycles)
                static_uw *= 1.0 - 0.8 * idle_frac
            bd.add_static("Monte", static_uw * time_s * 1e3)

        # --- Billie
        if config.accelerator == "billie":
            m = curve.bits
            sram = config.billie_sram_regfile
            dyn = (act.billie_busy * cal.billie.active_pj(m, sram)
                   + act.billie_idle
                   * cal.billie.idle_pj(m, sram,
                                        gated=config.clock_gating)) / 1e3
            bd.add_dynamic("Billie", dyn)
            static_uw = cal.billie.static_uw(m, sram)
            if config.clock_gating:
                idle_frac = act.billie_idle / max(1.0, act.cycles)
                static_uw *= 1.0 - 0.8 * idle_frac
            bd.add_static("Billie", static_uw * time_s * 1e3)

        return EnergyReport(label, int(act.cycles), bd)


def _sum_parts(parts: dict[str, Activity]) -> Activity:
    """Field-wise sum of activity parts, in insertion order."""
    total = Activity()
    for part in parts.values():
        for f in dc_fields(Activity):
            setattr(total, f.name,
                    getattr(total, f.name) + getattr(part, f.name))
    return total


# ---------------------------------------------------------------------------
# Shared/cached heavy objects
# ---------------------------------------------------------------------------

#: Session-installed model (see :func:`use_model`); ``None`` means the
#: process-wide default-calibration model.  A :class:`ContextVar` so
#: concurrent sessions on different threads (or async tasks) see only
#: their own model and cannot restore each other's.
_ACTIVE_MODEL: ContextVar[SystemModel | None] = ContextVar(
    "repro_active_model", default=None)


@lru_cache(maxsize=1)
def _default_model() -> SystemModel:
    return SystemModel()


def shared_model() -> SystemModel:
    """The model artifact producers consult.

    Defaults to a process-wide :class:`SystemModel` built from the
    default :data:`~repro.energy.calibration.CALIBRATION`; a session
    opened via :func:`repro.api.open_session` (or :func:`use_model`)
    temporarily installs its own model here, so every table/figure
    producer prices against the session's calibration without threading
    a model argument through each renderer.
    """
    model = _ACTIVE_MODEL.get()
    return model if model is not None else _default_model()


@contextmanager
def use_model(model: SystemModel):
    """Install ``model`` as the shared model for the enclosed block."""
    token = _ACTIVE_MODEL.set(model)
    try:
        yield model
    finally:
        _ACTIVE_MODEL.reset(token)


@lru_cache(maxsize=None)
def _shared_monte(p: int) -> Monte:
    return Monte(p)


@unit
def _billie_primitive_run(curve_name: str, primitive: str) -> dict:
    """Drive one full primitive's scalar multiplication on Billie."""
    from repro.model.billie_driver import run_sliding_window, run_twin

    curve = get_curve(curve_name)
    d, public = keypair(curve_name)
    billie = Billie(BillieConfig(m=curve.bits))
    if primitive == "sign":
        run = run_sliding_window(curve, d, curve.generator, billie)
        if run.result != public:
            raise KernelMismatch(f"Billie sign on {curve_name}: d*G "
                                 f"differs from the reference")
    else:
        # verification-shaped twin multiplication
        u1 = d | 1
        u2 = (d >> 1) | 1
        run = run_twin(curve, u1, curve.generator, u2, public, billie)
    return {
        "cycles": run.cycles,
        "busy_cycles": billie.stats.busy_cycles,
        "instructions": run.instructions,
        "ram_words": billie.stats.ram_words,
    }
