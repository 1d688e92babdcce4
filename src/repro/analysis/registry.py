"""The shipped programs the analysis CLI and CI verify.

Each entry names a generated Pete kernel (or FFAU microprogram), the
ABI model it is written against, what is secret when it runs, and the
waivers for findings that are *intentional* -- every waiver carries the
reason it is acceptable, which is the repository's machine-checked
side-channel and scheduling documentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.accel.microcode import (
    MicroProgram,
    build_addsub_program,
    build_cios_program,
)
from repro.analysis.cfg import AsmProgram
from repro.analysis.lints import (
    KERNEL_ABI,
    AbiModel,
    AnalysisResult,
    Finding,
    Waiver,
    analyze_program,
)
from repro.analysis.microcheck import check_microprogram
from repro.analysis.taint import TaintSpec
from repro.kernels import catalog

_DS_SCHEDULE = Waiver(
    "delay-slot-clobber",
    "intentional schedule: the loop pointer increment lives in the "
    "delay slot and the branch compares the pre-slot value "
    "(architecturally defined MIPS behaviour)")

#: Operand words (field elements) are secret; pointers are public.
_OPERANDS_SECRET = TaintSpec(secret_memory=True)

#: The scalar arrives in $a1.
_SCALAR_SECRET = TaintSpec(secret_regs=("a1",))


@dataclass(frozen=True)
class KernelSpec:
    """What the analyses assume of one shipped Pete kernel.

    How the kernel is built (source, entry, size, ISA switches) is its
    :mod:`repro.kernels.catalog` entry of the same name.
    """

    name: str
    abi: AbiModel = KERNEL_ABI
    taint: TaintSpec | None = None
    waivers: tuple[Waiver, ...] = ()
    note: str = ""
    #: asserted trip bounds for loops whose termination argument is
    #: mathematical rather than arithmetic: (label, max trips) pairs,
    #: passed to the abstract interpreter as ``assume_trips`` and
    #: surfaced in every verify report
    loop_bounds: tuple[tuple[str, int], ...] = ()
    #: taint spec for the *interprocedural* pass only -- for composed
    #: images whose flows cross calls, which the legacy intra pass
    #: cannot track; ``None`` falls back to ``taint``
    itaint: TaintSpec | None = None

    def taint_for_interp(self) -> TaintSpec | None:
        return self.itaint if self.itaint is not None else self.taint


@dataclass(frozen=True)
class MicroSpec:
    """One shipped FFAU microprogram under analysis."""

    name: str
    build: Callable[[], MicroProgram]


KERNELS: tuple[KernelSpec, ...] = (
    KernelSpec("mp_add", taint=_OPERANDS_SECRET),
    KernelSpec("mp_sub", taint=_OPERANDS_SECRET),
    KernelSpec("os_mul", taint=_OPERANDS_SECRET),
    KernelSpec("ps_mul_ext", taint=_OPERANDS_SECRET,
               waivers=(_DS_SCHEDULE,)),
    KernelSpec("ps_sqr_ext", taint=_OPERANDS_SECRET,
               waivers=(_DS_SCHEDULE,),
               # the squaring convolution walks two pointers toward
               # each other; they converge only because both root at
               # the same arena, which value analysis cannot see
               loop_bounds=(("ps_sqr_ext_in_lo", 4),
                            ("ps_sqr_ext_in_hi", 4))),
    KernelSpec("red_p192", taint=_OPERANDS_SECRET,
               waivers=(Waiver(
                   "secret-dependent-branch",
                   "NIST fast reduction branches on the carry word and "
                   "the trial-subtraction borrow; the paper's baseline "
                   "is not constant-time (Section 2.1.5 discusses the "
                   "resulting leakage)"),),
               # the carry-fold terminates because each pass shrinks
               # the carry word: a mathematical argument, asserted here
               loop_bounds=(("red_p192_fold", 4),)),
    KernelSpec("comb_mul", taint=_OPERANDS_SECRET,
               waivers=(Waiver(
                   "secret-dependent-address",
                   "the comb method indexes its precomputed row table "
                   "by secret operand nibbles -- the classic "
                   "cache-timing trade-off of table-based binary-field "
                   "multiplication"),)),
    KernelSpec("ps_mulgf2", taint=_OPERANDS_SECRET,
               waivers=(_DS_SCHEDULE,)),
    KernelSpec("bsqr_table", taint=_OPERANDS_SECRET,
               waivers=(Waiver(
                   "secret-dependent-address",
                   "byte-wise squaring looks the squared byte up in a "
                   "256-entry table indexed by secret data"),)),
    KernelSpec("bsqr_ext", taint=_OPERANDS_SECRET),
    KernelSpec("red_b163", taint=_OPERANDS_SECRET),
    KernelSpec("speck64", taint=_OPERANDS_SECRET),
    KernelSpec("scalar_daa", taint=_SCALAR_SECRET,
               waivers=(Waiver(
                   "secret-dependent-branch",
                   "double-and-add exists to demonstrate the leak the "
                   "Montgomery ladder removes; side_channel.py measures "
                   "the same asymmetry dynamically"),)),
    KernelSpec("scalar_ladder", taint=_SCALAR_SECRET,
               note="certified constant-time: no waivers, no findings"),
    # The composed images bundle kernel-ABI callees ($s* scratch), so
    # the kernel model applies to the whole program.  The legacy intra
    # taint pass is not run across calls (its one-bit memory model
    # cannot distinguish a reloaded public pointer from secret data
    # once both were stored); the interprocedural pass tracks memory
    # taint per word and covers the whole call tree via ``itaint``.
    KernelSpec("fmul_p192", itaint=_OPERANDS_SECRET,
               waivers=(Waiver(
                   "secret-dependent-branch",
                   "inherited from red_p192: the NIST reduction inside "
                   "the composed field multiply branches on carry and "
                   "borrow words derived from secret operands"),),
               loop_bounds=(("red_p192_fold", 4),)),
    KernelSpec("fmul_b163", itaint=_OPERANDS_SECRET,
               waivers=(Waiver(
                   "secret-dependent-address",
                   "inherited from comb_mul: the comb method indexes "
                   "its row table by secret operand nibbles"),)),
)


MICROPROGRAMS: tuple[MicroSpec, ...] = (
    MicroSpec("cios", build_cios_program),
    MicroSpec("mod_add", lambda: build_addsub_program(subtract=False)),
    MicroSpec("mod_sub", lambda: build_addsub_program(subtract=True)),
)


@dataclass
class ProgramReport:
    """Outcome of analyzing one registry entry."""

    name: str
    kind: str                          # "kernel" | "microcode"
    findings: list[Finding] = field(default_factory=list)
    waived: list[tuple[Finding, Waiver]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
            "waived": [{**f.to_dict(), "reason": w.reason}
                       for f, w in self.waived],
        }


def kernel_spec(name: str) -> KernelSpec:
    for spec in KERNELS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown kernel {name!r}")


def analyze_kernel(spec: KernelSpec) -> AnalysisResult:
    """The lint suite over the kernel's bare source at its table size
    (no halt stub: that would read as unreachable code)."""
    kernel = catalog.KERNELS[spec.name]
    program = AsmProgram.from_source(kernel.source(kernel.k),
                                     name=spec.name)
    return analyze_program(program, abi=spec.abi, taint=spec.taint,
                           waivers=spec.waivers)


def report_kernel(spec: KernelSpec) -> ProgramReport:
    result = analyze_kernel(spec)
    return ProgramReport(spec.name, "kernel", result.findings, result.waived)


def report_micro(spec: MicroSpec) -> ProgramReport:
    findings = check_microprogram(spec.build(), name=spec.name)
    return ProgramReport(spec.name, "microcode", findings, [])


def all_reports() -> list[ProgramReport]:
    """Analyze every registered program."""
    reports = [report_kernel(spec) for spec in KERNELS]
    reports += [report_micro(spec) for spec in MICROPROGRAMS]
    return reports
