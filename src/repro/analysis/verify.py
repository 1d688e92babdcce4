"""Whole-kernel verification: every static guarantee, one report.

``verify_kernel`` runs the full static stack over one registered
kernel -- the PR 1 lint suite, the whole-program abstract interpreter
(:mod:`repro.analysis.interp`), interprocedural taint
(:func:`repro.analysis.taint.taint_interp`), the static superblock map
(:mod:`repro.analysis.superblock`) and the cycle/energy upper bounds
(:mod:`repro.analysis.bounds`) -- then *checks the guarantees against
reality*: the kernel is built and run through the same harness
``measure`` uses and every bound is asserted against the observed
:class:`~repro.pete.stats.CoreStats` and priced energy
(``bound >= observed``, tightness reported).  Violations and analysis
refusals surface as findings subject to the same waiver registry
(including expiry) as every other check, so ``python -m repro.analysis
verify --all`` fails loudly and explains itself.

The per-kernel :class:`VerifyReport` is the machine-readable findings
artifact CI uploads (``--json``), and :func:`verify_record` turns it
into a ``kind="analysis"`` ledger record so bound quality is tracked
by the regression baseline like any other measured quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.kernels.runner import KernelRunner

from repro.analysis.bounds import (
    BoundResult,
    Cost,
    compute_bound,
    energy_bound_nj,
)
from repro.analysis.cfg import AsmProgram
from repro.analysis.interp import InterpResult, analyze_image
from repro.analysis.lints import Finding, Waiver, apply_waivers
from repro.analysis.registry import KERNELS, KernelSpec, report_kernel
from repro.analysis.superblock import Superblock, coverage, static_blocks
from repro.analysis.taint import taint_interp
from repro.kernels import catalog


def build_image(spec: KernelSpec
                ) -> tuple[AsmProgram, int, dict[int, int], dict[int, int]]:
    """The image the measurement harness loads (the kernel's
    :func:`repro.kernels.catalog.image` at its table size), plus its
    analysis inputs: ``(program, entry index, entry_values,
    assume_trips)``."""
    kernel = catalog.KERNELS[spec.name]
    program = AsmProgram.from_assembled(catalog.image(kernel.name, kernel.k),
                                        name=spec.name)
    entry = program.labels[kernel.entry]
    halt = program.labels[catalog.HALT]
    assume: dict[int, int] = {}
    for label, trips in spec.loop_bounds:
        if label in program.labels:
            assume[program.labels[label]] = trips
    return program, entry, {31: program.address(halt)}, assume


def analyze_spec(spec: KernelSpec) -> tuple[AsmProgram, InterpResult]:
    """Interpret a registered kernel's harness image whole-program."""
    program, entry, entry_values, assume = build_image(spec)
    result = analyze_image(program, entry, entry_values=entry_values,
                           assume_trips=assume)
    return program, result


@dataclass
class VerifyReport:
    """Everything one kernel's verification produced."""

    name: str
    k: int
    findings: list[Finding] = field(default_factory=list)
    waived: list[tuple[Finding, Waiver]] = field(default_factory=list)
    bound: Cost | None = None
    problems: list[str] = field(default_factory=list)
    observed: dict = field(default_factory=dict)
    bound_energy_nj: float | None = None
    observed_energy_nj: float | None = None
    superblocks: list[Superblock] = field(default_factory=list)
    superblock_coverage: float = 0.0
    assumed_loops: list[tuple[int, int]] = field(default_factory=list)
    dead_branches: int = 0
    calls_resolved: int = 0

    @property
    def tightness(self) -> float | None:
        if self.bound is None or not self.observed.get("cycles"):
            return None
        return self.bound.cycles / self.observed["cycles"]

    @property
    def clean(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "k": self.k,
            "clean": self.clean,
            "findings": [f.to_dict() for f in self.findings],
            "waived": [{**f.to_dict(), "reason": w.reason}
                       for f, w in self.waived],
            "bound": self.bound.to_dict() if self.bound else None,
            "problems": list(self.problems),
            "observed": dict(self.observed),
            "tightness": self.tightness,
            "bound_energy_nj": self.bound_energy_nj,
            "observed_energy_nj": self.observed_energy_nj,
            "superblocks": [b.to_dict() for b in self.superblocks],
            "superblock_coverage": self.superblock_coverage,
            "assumed_loops": list(self.assumed_loops),
            "dead_branches": self.dead_branches,
            "calls_resolved": self.calls_resolved,
        }


def _bound_violations(name: str, bound: Cost, observed: dict,
                      bound_nj: float | None,
                      observed_nj: float | None) -> list[Finding]:
    """``bound >= observed`` on every counter the bound certifies.

    Unresolved loads may have hit either memory, so they slacken both
    the ROM and the RAM read comparison.
    """
    checks = [
        ("cycles", bound.cycles, observed.get("cycles", 0)),
        ("instructions", bound.instructions,
         observed.get("instructions", 0)),
        ("rom_word_reads", bound.rom_reads + bound.unknown_loads,
         observed.get("rom_word_reads", 0)),
        ("ram_reads", bound.ram_reads + bound.unknown_loads,
         observed.get("ram_reads", 0)),
        ("ram_writes", bound.ram_writes, observed.get("ram_writes", 0)),
    ]
    out = []
    for what, b, o in checks:
        if b < o:
            out.append(Finding(
                check="static-bound", index=-1, program=name,
                message=f"static {what} bound {b} < observed {o} -- "
                        f"the bound model is unsound for this kernel"))
    if (bound_nj is not None and observed_nj is not None
            and bound_nj < observed_nj):
        out.append(Finding(
            check="static-bound", index=-1, program=name,
            message=f"static energy bound {bound_nj:.1f} nJ < observed "
                    f"{observed_nj:.1f} nJ"))
    return out


def verify_kernel(spec: KernelSpec, runner: KernelRunner | None = None,
                  observe: bool = True) -> VerifyReport:
    """Run every static pass over one kernel and (unless ``observe``
    is off) assert the bounds against an actual harness run."""
    kernel = catalog.KERNELS[spec.name]
    program, result = analyze_spec(spec)
    report = VerifyReport(spec.name, kernel.k)
    report.assumed_loops = sorted(set(result.assumed_loops))
    report.dead_branches = len(result.dead_branches)
    report.calls_resolved = len(result.calls)
    report.superblocks = static_blocks(program)
    report.superblock_coverage = coverage(program)

    findings = list(result.findings)
    tspec = spec.taint_for_interp()
    if tspec is not None:
        findings += taint_interp(result, tspec)

    br: BoundResult = compute_bound(result)
    report.bound = br.total
    report.problems = list(br.problems)
    findings += [Finding(check="static-bound", index=-1,
                         program=spec.name, message=p)
                 for p in br.problems]

    if observe:
        from repro.energy.simulated import (
            RunEnergyParams,
            report_from_corestats,
        )
        from repro.kernels.runner import KernelRunner

        if runner is None:
            runner = KernelRunner(cache={})
        cpu, entry_pc = runner.prepare(spec.name, kernel.k)
        cpu.run(entry_pc)
        s = cpu.stats
        report.observed = {
            "cycles": s.cycles, "instructions": s.instructions,
            "rom_word_reads": s.rom_word_reads,
            "ram_reads": s.ram_reads, "ram_writes": s.ram_writes,
        }
        params = RunEnergyParams(cal=runner.cal,
                                 prime_isa_ext=kernel.prime_ext,
                                 binary_isa_ext=kernel.binary_ext)
        report.observed_energy_nj = report_from_corestats(
            s, params, label=spec.name).total_nj
        if br.total is not None:
            report.bound_energy_nj = energy_bound_nj(br.total, params)
            findings += _bound_violations(
                spec.name, br.total, report.observed,
                report.bound_energy_nj, report.observed_energy_nj)

    active, waived = apply_waivers(findings, spec.waivers)
    # the PR 1 lint suite on the bare kernel source, exactly as the
    # legacy `--all` CLI path runs it (its own waivers applied there)
    legacy = report_kernel(spec)
    report.findings = legacy.findings + active
    report.waived = legacy.waived + waived
    return report


def verify_all(observe: bool = True) -> list[VerifyReport]:
    """Verify every registered kernel (one shared harness runner)."""
    runner = None
    if observe:
        from repro.kernels.runner import KernelRunner

        runner = KernelRunner(cache={})
    return [verify_kernel(spec, runner=runner, observe=observe)
            for spec in KERNELS]


def verify_record(report: VerifyReport) -> dict:
    """One ``kind="analysis"`` ledger record for a verify report."""
    from repro.trace.record import bench_record

    return bench_record(
        artifact=f"analysis_{report.name}",
        config=f"k={report.k}",
        cycles=float(report.bound.cycles if report.bound else 0),
        energy_uj=(report.bound_energy_nj or 0.0) / 1000.0,
        data={
            "clean": report.clean,
            "findings": len(report.findings),
            "waived": len(report.waived),
            "observed_cycles": report.observed.get("cycles"),
            "tightness": report.tightness,
            "superblock_coverage": report.superblock_coverage,
            "dead_branches": report.dead_branches,
            "calls_resolved": report.calls_resolved,
        },
        kind="analysis")
