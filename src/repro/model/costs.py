"""Per-operation cycle and activity costs (DESIGN.md Section 5, step 3).

For the software configurations every field operation decomposes into
measured kernels plus a *software-harness overhead* term modeling what
the paper's compiled C++ adds around the inner loops (call/return,
operand-pointer marshalling, temporary copies, coordinate bookkeeping).
The overhead constants below are the only cycle-level calibration in the
model; they are set so the whole-operation latencies land near the
paper's measured Tables 7.1/7.2 and they scale with the word count k the
way copy costs do.

Reductions are measured for P-192 and B-163 and extrapolated to the other
fields by their fold-term counts (see ``repro.mp.reduce``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ec.curves import Curve
from repro.fields.inversion import fermat_prime_opcounts, itoh_tsujii_opcounts
from repro.mp.reduce import reduction_fold_ops
from repro.kernels.runner import shared_runner
from repro.model.configs import MicroarchConfig
from repro.model.units import unit

# ---------------------------------------------------------------------------
# Calibrated software-overhead constants (cycles).
# ---------------------------------------------------------------------------

#: per-field-op harness overhead: alpha + beta * k.  The compiled C++
#: suite allocates/copies multi-precision temporaries around each kernel.
SW_OVERHEAD_ALPHA = 100.0
SW_OVERHEAD_BETA = 20.0
#: the ISA-extended builds keep the accumulator in Hi/Lo/OvFlo and avoid
#: most temporaries, so their per-op glue is leaner (calibrated to the
#: paper's Table 7.1/7.2 ISA rows).  The prime path still marshals the
#: carry state and triple-word accumulator spills; the carry-less binary
#: path has essentially no glue beyond call/return.
PRIME_ISA_OVERHEAD_ALPHA = 40.0
PRIME_ISA_OVERHEAD_BETA = 8.0
BINARY_ISA_OVERHEAD_ALPHA = 12.0
BINARY_ISA_OVERHEAD_BETA = 3.0
#: lighter overhead for add/sub (operands used in place more often)
SW_ADD_OVERHEAD_ALPHA = 45.0
SW_ADD_OVERHEAD_BETA = 9.0
#: extended-Euclidean inversion: iterations ~ 2*bits, cycles/iteration
#: alpha + beta*k.  The per-iteration constant is large because the
#: compiled C++ walks heap-allocated big integers with bounds upkeep --
#: it anchors the paper's observation that the protocol arithmetic
#: (inversion modulo the group order, run on Pete in *every* config)
#: consumes ~62 % of an accelerated ECDSA (Section 7.3).
INV_ITER_ALPHA = 65.0
INV_ITER_BETA = 40.0
#: arithmetic modulo the group order has no NIST-friendly shape, so the
#: reduction is a generic (division-free, Barrett-style) pass roughly as
#: expensive as the multiplication itself
ORDER_REDUCE_FACTOR = 1.25
#: fraction of overhead cycles that touch RAM (copies)
OVERHEAD_RAM_FRACTION = 0.35
#: hand-scheduled assembly vs the paper's -O2 compiled nested loops: the
#: looped comb/table kernels of the software-only binary path lose more
#: to compilation than the mul-bound ISA kernels do (calibrated to
#: Table 7.2's baseline rows)
COMPILED_CODE_FACTOR_BINARY_SW = 1.48


@dataclass(frozen=True)
class OpCost:
    """Cycles + activity of one field/order operation on Pete."""

    cycles: float
    instructions: float
    ram_reads: float
    ram_writes: float

    def scaled(self, n: float) -> "OpCost":
        return OpCost(self.cycles * n, self.instructions * n,
                      self.ram_reads * n, self.ram_writes * n)

    def plus(self, other: "OpCost") -> "OpCost":
        return OpCost(self.cycles + other.cycles,
                      self.instructions + other.instructions,
                      self.ram_reads + other.ram_reads,
                      self.ram_writes + other.ram_writes)


def _overhead(k: int, alpha: float, beta: float) -> OpCost:
    cycles = alpha + beta * k
    return OpCost(
        cycles=cycles,
        instructions=0.92 * cycles,
        ram_reads=OVERHEAD_RAM_FRACTION * cycles * 0.6,
        ram_writes=OVERHEAD_RAM_FRACTION * cycles * 0.4,
    )


def _kernel_cost(name: str, k: int) -> OpCost:
    res = shared_runner().measure(name, k)
    return OpCost(res.cycles, res.instructions, res.ram_reads,
                  res.ram_writes)


def _inversion_cost(bits: int, k: int) -> OpCost:
    """Binary extended Euclidean inversion on Pete, O(k^2)."""
    iters = 2.0 * bits
    per_iter = INV_ITER_ALPHA + INV_ITER_BETA * k
    cycles = iters * per_iter
    return OpCost(cycles, 0.9 * cycles, 0.28 * cycles, 0.14 * cycles)


def _prime_reduce_cost(bits: int) -> OpCost:
    """NIST fast reduction; measured at P-192, fold-scaled elsewhere."""
    base = _kernel_cost("red_p192", 6)
    scale = reduction_fold_ops(bits, prime=True) / reduction_fold_ops(
        192, prime=True)
    return base.scaled(scale)


def _binary_reduce_cost(m: int) -> OpCost:
    base = _kernel_cost("red_b163", 6)
    scale = reduction_fold_ops(m, prime=False) / reduction_fold_ops(
        163, prime=False)
    return base.scaled(scale)


# ---------------------------------------------------------------------------
# Per-configuration cost tables
# ---------------------------------------------------------------------------


def software_costs(curve_name: str,
                   config: "MicroarchConfig | str") -> dict[str, OpCost]:
    """Field + order op costs for a software (non-accelerated) config.

    Costs depend only on the ISA feature flags, so instruction-cache
    variants share entries.
    """
    from repro.model.configs import get_config

    if isinstance(config, str):
        config = get_config(config)
    return _software_costs(curve_name, config.prime_isa_ext,
                           config.binary_isa_ext)


@unit
def _software_costs(curve_name: str, prime_isa_ext: bool,
                    binary_isa_ext: bool) -> dict[str, OpCost]:
    from repro.ec.curves import get_curve

    class _Flags:
        pass

    config = _Flags()
    config.prime_isa_ext = prime_isa_ext
    config.binary_isa_ext = binary_isa_ext
    curve = get_curve(curve_name)
    k = curve.field.words()
    bits = curve.bits
    costs: dict[str, OpCost] = {}
    if config.binary_isa_ext and curve.is_binary:
        mul_overhead = _overhead(k, BINARY_ISA_OVERHEAD_ALPHA,
                                 BINARY_ISA_OVERHEAD_BETA)
        add_overhead = _overhead(k, BINARY_ISA_OVERHEAD_ALPHA,
                                 BINARY_ISA_OVERHEAD_BETA / 2)
    elif config.prime_isa_ext or config.binary_isa_ext:
        mul_overhead = _overhead(k, PRIME_ISA_OVERHEAD_ALPHA,
                                 PRIME_ISA_OVERHEAD_BETA)
        add_overhead = _overhead(k, PRIME_ISA_OVERHEAD_ALPHA,
                                 PRIME_ISA_OVERHEAD_BETA / 2)
    else:
        mul_overhead = _overhead(k, SW_OVERHEAD_ALPHA, SW_OVERHEAD_BETA)
        add_overhead = _overhead(k, SW_ADD_OVERHEAD_ALPHA,
                                 SW_ADD_OVERHEAD_BETA)

    if curve.is_binary:
        reduce_cost = _binary_reduce_cost(bits)
        if config.binary_isa_ext:
            mul = _kernel_cost("ps_mulgf2", k)
            sqr = _kernel_cost("bsqr_ext", k)
        else:
            mul = _kernel_cost("comb_mul", k).scaled(
                COMPILED_CODE_FACTOR_BINARY_SW)
            sqr = _kernel_cost("bsqr_table", k).scaled(
                COMPILED_CODE_FACTOR_BINARY_SW)
        costs["fmul"] = mul.plus(reduce_cost).plus(mul_overhead)
        costs["fsqr"] = sqr.plus(reduce_cost).plus(add_overhead)
        # binary add = XOR loop, no reduction (Section 4.2.4)
        xor_loop = _kernel_cost("mp_add", k).scaled(0.7)
        costs["fadd"] = xor_loop.plus(add_overhead)
        costs["fsub"] = costs["fadd"]
        costs["finv"] = _inversion_cost(bits, k)
    else:
        reduce_cost = _prime_reduce_cost(bits)
        if config.prime_isa_ext:
            mul = _kernel_cost("ps_mul_ext", k)
            sqr = _kernel_cost("ps_sqr_ext", k)
        else:
            mul = _kernel_cost("os_mul", k)
            sqr = mul  # the baseline has no dedicated squaring path
        costs["fmul"] = mul.plus(reduce_cost).plus(mul_overhead)
        costs["fsqr"] = sqr.plus(reduce_cost).plus(mul_overhead)
        add = _kernel_cost("mp_add", k)
        sub = _kernel_cost("mp_sub", k)
        # modular add = raw add + conditional (avg 0.5) correcting sub
        costs["fadd"] = add.plus(sub.scaled(0.5)).plus(add_overhead)
        costs["fsub"] = sub.plus(add.scaled(0.5)).plus(add_overhead)
        costs["finv"] = _inversion_cost(bits, k)

    _add_order_costs(costs, curve, prime_ext=config.prime_isa_ext)
    return costs


def _add_order_costs(costs: dict[str, OpCost], curve: Curve,
                     prime_ext: bool) -> None:
    """Arithmetic modulo the group order n: integer math on Pete in every
    configuration (Section 4.1)."""
    k_order = -(-curve.n.bit_length() // 32)
    bits = curve.n.bit_length()
    mul_kernel = "ps_mul_ext" if prime_ext else "os_mul"
    mul = _kernel_cost(mul_kernel, k_order)
    generic_reduce = mul.scaled(ORDER_REDUCE_FACTOR)
    if prime_ext:
        overhead = _overhead(k_order, PRIME_ISA_OVERHEAD_ALPHA,
                             PRIME_ISA_OVERHEAD_BETA)
    else:
        overhead = _overhead(k_order, SW_OVERHEAD_ALPHA, SW_OVERHEAD_BETA)
    costs["omul"] = mul.plus(generic_reduce).plus(overhead)
    costs["oadd"] = _kernel_cost("mp_add", k_order).plus(
        _overhead(k_order, SW_ADD_OVERHEAD_ALPHA, SW_ADD_OVERHEAD_BETA))
    costs["oinv"] = _inversion_cost(bits, k_order)


# ---------------------------------------------------------------------------
# Accelerator-side field-op expansion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonteOpModel:
    """Effective Monte costs for one field op inside the point-routine
    instruction pattern (loads/store overlapped via double buffering)."""

    mul_cycles: float
    add_cycles: float
    issue_instructions: float = 6.0   # Pete instructions per field op
    dma_words_per_op: float = 0.0     # filled by the system model

    def fermat_inverse_cycles(self, p: int) -> float:
        sqr, mul = fermat_prime_opcounts(p)
        return (sqr + mul) * self.mul_cycles


def itoh_tsujii_billie_ops(m: int) -> dict[str, int]:
    """Billie op counts of one Itoh-Tsujii field inversion."""
    sqr, mul = itoh_tsujii_opcounts(m)
    return {"mul": mul, "sqr": sqr}
