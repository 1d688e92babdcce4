"""Lock-step differential verification of the block-threaded engines.

Runs the block-threaded core (:meth:`repro.pete.cpu.Pete.step_unit`,
superblocks from :mod:`repro.pete.fastpath`) and the reference
interpreter side by side on identical inputs: the fast core advances
one *unit* at a time (a compiled superblock, or a single reference
instruction where no block applies), the reference core is then
stepped by the same number of instructions, and the complete
architectural state -- PC, registers, cycle, every ``CoreStats``
counter, the Hi/Lo/OvFlo accumulator, RAM contents, the branch
predictor and the load-use latch -- is compared at every unit
boundary.  The first divergence is reported with disassembly context
around the offending PC.  :func:`run_reference` is the whole run on
the reference interpreter alone, the oracle tests and benchmarks
compare ``Pete.run`` against.

This is the correctness tool that lets interpreter work move fast: any
change to the fast path (or the reference core) that breaks the
stats/energy-exactness contract is localized to the first diverging
block and quantity, not discovered as a wrong number in Table 7.1.

Usage::

    PYTHONPATH=src python -m repro.pete.diffexec \\
        --kernels os_mul:8 comb_mul:6 scalar_ladder:16

runs the named kernels (default: a representative set covering the
prime-field, binary-field, scalar and symmetric kernel families, and
every kernel the signing service serves),
prints one summary line per kernel and exits non-zero on the first
divergence.  ``--report PATH`` writes the full report (divergence
details included) for CI to upload.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.pete.cpu import Pete
from repro.pete.fastpath import Fastpath
from repro.pete.stats import CoreStats

#: One kernel per family: prime-field school/product-scanning, NIST
#: reduction, binary-field comb + squaring, scalar loops, symmetric;
#: plus every kernel plan the signing service runs
#: (:data:`repro.serve.types.PLANS`).
DEFAULT_KERNELS = (
    "mp_add:8", "os_mul:8", "os_mul:6", "ps_mul_ext:8", "red_p192:6",
    "fmul_p192:6",
    "comb_mul:6", "ps_mulgf2:6", "bsqr_table:6", "red_b163:6",
    "fmul_b163:6",
    "scalar_daa:16", "scalar_ladder:16", "speck64:1",
)


@dataclass
class Divergence:
    """The first state mismatch between the two interpreters."""

    what: str                  # e.g. "regs[$t0]", "cycle", "stats.cycles"
    ref_value: object
    fast_value: object
    pc: int                    # fast-core PC at the boundary
    instructions: int          # instructions retired when it surfaced
    context: str = ""          # disassembly window around the PC

    def format(self) -> str:
        lines = [
            f"divergence after {self.instructions} instructions "
            f"at pc=0x{self.pc:06x}:",
            f"  {self.what}: reference={self.ref_value!r} "
            f"fast={self.fast_value!r}",
        ]
        if self.context:
            lines.append("  context:")
            lines.extend("    " + line
                         for line in self.context.splitlines())
        return "\n".join(lines)


@dataclass
class DiffReport:
    """Outcome of one lock-step run."""

    label: str
    instructions: int = 0
    blocks: int = 0            # superblock executions on the fast side
    boundaries: int = 0        # state comparisons performed
    divergence: Divergence | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def summary(self) -> str:
        status = "ok" if self.ok else "DIVERGED"
        return (f"{self.label:<18} {status:<9} "
                f"{self.instructions:>9} instructions  "
                f"{self.blocks:>6} blocks  "
                f"{self.boundaries:>7} state compares")

    def format(self) -> str:
        out = [self.summary()]
        if self.divergence is not None:
            out.append(self.divergence.format())
        out.extend(self.notes)
        return "\n".join(out)


# ---------------------------------------------------------------------------
# Stepping and comparison primitives
# ---------------------------------------------------------------------------


def run_reference(cpu: Pete, entry: int,
                  max_cycles: int = 50_000_000) -> CoreStats:
    """Run ``cpu`` from ``entry`` to its halt on the reference
    interpreter alone, one :meth:`Pete.step_instruction` at a time --
    the oracle :meth:`Pete.run` is held to.  Unlike ``Pete.run`` it
    checks ``max_cycles`` after every instruction."""
    cpu.begin(entry)
    while cpu.cycle < max_cycles:
        if not cpu.step_instruction():
            return cpu.stats
    raise RuntimeError(f"program did not halt within {max_cycles} cycles")


def _reg_name(index: int) -> str:
    from repro.pete.isa import REGISTER_NAMES

    return f"regs[${REGISTER_NAMES[index]}]"


def compare_state(ref: Pete, fast: Pete) -> Divergence | None:
    """First architectural difference between two cores, or ``None``."""

    def div(what, ref_value, fast_value):
        return Divergence(what, ref_value, fast_value, fast.pc,
                          fast.stats.instructions)

    if ref.pc != fast.pc:
        return div("pc", hex(ref.pc), hex(fast.pc))
    if ref.cycle != fast.cycle:
        return div("cycle", ref.cycle, fast.cycle)
    if ref.regs != fast.regs:
        for i, (a, b) in enumerate(zip(ref.regs, fast.regs)):
            if a != b:
                return div(_reg_name(i), a, b)
    if ref.muldiv.acc != fast.muldiv.acc:
        return div("muldiv.acc", hex(ref.muldiv.acc),
                   hex(fast.muldiv.acc))
    if ref.muldiv.busy_until != fast.muldiv.busy_until:
        return div("muldiv.busy_until", ref.muldiv.busy_until,
                   fast.muldiv.busy_until)
    if ref.muldiv.issues != fast.muldiv.issues:
        return div("muldiv.issues", ref.muldiv.issues,
                   fast.muldiv.issues)
    if ref._last_load_reg != fast._last_load_reg:
        return div("load-use latch", ref._last_load_reg,
                   fast._last_load_reg)
    stats_diff = ref.stats.diff(fast.stats)
    if stats_diff:
        name, (a, b) = next(iter(stats_diff.items()))
        return div(f"stats.{name}", a, b)
    if ref._predictor != fast._predictor:
        return div("branch predictor", ref._predictor, fast._predictor)
    if ref.mem.ram != fast.mem.ram:
        for offset, (a, b) in enumerate(zip(ref.mem.ram, fast.mem.ram)):
            if a != b:
                from repro.pete.memory import RAM_BASE

                return div(f"ram[0x{RAM_BASE + offset:08x}]", a, b)
    return None


def _context(cpu: Pete, window: int = 6) -> str:
    """Disassembly around ``cpu.pc``, the boundary PC marked."""
    from repro.pete.disassembler import disassemble_decoded
    from repro.pete.isa import PeteISA

    labels: dict[int, str] = {}
    if cpu.program is not None:
        labels = {cpu.program.base + 4 * index: name
                  for name, index in cpu.program.labels.items()}
    lines = []
    for addr in range(cpu.pc - 4 * window, cpu.pc + 4 * (window + 1), 4):
        if addr < 0:
            continue
        try:
            text = disassemble_decoded(
                PeteISA.decode(cpu.mem.peek_word(addr)), addr)
        except (MemoryError, ValueError):
            text = "<not decodable>"
        if addr in labels:
            lines.append(f"{labels[addr]}:")
        marker = "->" if addr == cpu.pc else "  "
        lines.append(f"{marker} 0x{addr:06x}  {text}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The lock-step loop
# ---------------------------------------------------------------------------


def lockstep(fast: Pete, entry: int, *, label: str = "",
             max_cycles: int = 50_000_000) -> DiffReport:
    """Run ``fast`` (fast path) against a clone of itself (reference)
    in lock-step from ``entry``; state is compared at every unit
    boundary and the first divergence ends the run."""
    ref = fast.clone()
    fast.fastpath = Fastpath(fast)
    fast.begin(entry)
    ref.begin(entry)
    report = DiffReport(label or f"pc=0x{entry:x}")

    while True:
        if fast.cycle > max_cycles:
            raise RuntimeError(
                f"{report.label}: no halt within {max_cycles} cycles")
        before = fast.stats.instructions
        fast_alive = fast.step_unit()
        retired = fast.stats.instructions - before
        if retired > 1:   # only a superblock retires several at once
            report.blocks += 1
        ref_alive = True
        for _ in range(retired):
            ref_alive = ref.step_instruction()
            if not ref_alive:
                break
        report.boundaries += 1
        report.instructions = fast.stats.instructions
        divergence = compare_state(ref, fast)
        if divergence is None and fast_alive != ref_alive:
            divergence = Divergence(
                "halt", f"ref halted={not ref_alive}",
                f"fast halted={not fast_alive}", fast.pc,
                fast.stats.instructions)
        if divergence is not None:
            divergence.context = _context(fast)
            report.divergence = divergence
            return report
        if not fast_alive:
            return report


def certify_static(cpu: Pete, report: DiffReport) -> None:
    """Cross-check dynamic superblock discovery against the static map.

    The abstract analyzer's superblock map
    (:mod:`repro.analysis.superblock`) must be a superset of what the
    fastpath discovered at runtime: every compiled block inside a
    statically mapped region, every declined pc statically rated below
    the compile threshold.  A mismatch is reported through the same
    ``divergence`` channel as a lock-step failure, so the CI job gates
    on it with no extra plumbing.
    """
    if cpu.fastpath is None or cpu.program is None:
        return
    from repro.analysis.cfg import AsmProgram
    from repro.analysis.superblock import certify, static_blocks

    program = AsmProgram.from_assembled(cpu.program, name=report.label)
    problems = certify(program, cpu.fastpath._blocks)
    if problems:
        if report.divergence is None:
            report.divergence = Divergence(
                "static superblock map",
                "superset of dynamic discovery",
                f"{len(problems)} mismatch(es)",
                cpu.pc, report.instructions,
                context="\n".join(problems))
        return
    report.notes.append(
        f"  static map certified: {len(static_blocks(program))} static "
        f"regions cover all {report.blocks} dynamic block executions")


def compare_lane_state(ref: Pete, eng, lane: int) -> Divergence | None:
    """First architectural difference between a reference core and one
    lane of a :class:`~repro.pete.lanes.LaneEngine`, or ``None``.

    Demoted / bridge-halted lanes hold their truth in a scalar core and
    go through :func:`compare_state` unchanged; vector lanes are read
    through the engine's dense arrays."""
    bridge = eng.lane_bridge(lane)
    if bridge is not None:
        return compare_state(ref, bridge)
    import numpy as np

    def div(what, ref_value, fast_value):
        return Divergence(what, ref_value, fast_value, eng.lane_pc(lane),
                          eng.lane_instructions(lane))

    if ref.pc != eng.lane_pc(lane):
        return div("pc", hex(ref.pc), hex(eng.lane_pc(lane)))
    if ref.cycle != eng.lane_cycle(lane):
        return div("cycle", ref.cycle, eng.lane_cycle(lane))
    regs = eng.lane_regs(lane)
    if ref.regs != regs:
        for i, (a, b) in enumerate(zip(ref.regs, regs)):
            if a != b:
                return div(_reg_name(i), a, b)
    if ref.muldiv.acc != eng.lane_acc(lane):
        return div("muldiv.acc", hex(ref.muldiv.acc),
                   hex(eng.lane_acc(lane)))
    if ref.muldiv.busy_until != eng.lane_busy_until(lane):
        return div("muldiv.busy_until", ref.muldiv.busy_until,
                   eng.lane_busy_until(lane))
    if ref.muldiv.issues != eng.lane_issues(lane):
        return div("muldiv.issues", ref.muldiv.issues,
                   eng.lane_issues(lane))
    if ref._last_load_reg != eng.lane_load_latch(lane):
        return div("load-use latch", ref._last_load_reg,
                   eng.lane_load_latch(lane))
    stats_diff = ref.stats.diff(eng.lane_stats(lane))
    if stats_diff:
        name, (a, b) = next(iter(stats_diff.items()))
        return div(f"stats.{name}", a, b)
    if ref._predictor != eng.lane_predictor(lane):
        return div("branch predictor", ref._predictor,
                   eng.lane_predictor(lane))
    ref_ram = np.frombuffer(ref.mem.ram, dtype=np.uint8)
    if not np.array_equal(ref_ram, eng.ram[lane]):
        offset = int(np.nonzero(ref_ram != eng.ram[lane])[0][0])
        from repro.pete.memory import RAM_BASE

        return div(f"ram[0x{RAM_BASE + offset:08x}]",
                   int(ref_ram[offset]), int(eng.ram[lane][offset]))
    return None


def lockstep_lanes(cores: list[Pete], entry: int, *, label: str = "",
                   max_cycles: int = 50_000_000) -> DiffReport:
    """Run N prepared cores through the lane engine against N reference
    clones; every lane's full state is compared at every engine unit
    boundary and the first per-lane divergence ends the run."""
    from repro.pete.lanes import LaneEngine

    refs = [core.clone() for core in cores]
    eng = LaneEngine(cores)
    eng.begin(entry)
    for ref in refs:
        ref.begin(entry)
    n = len(refs)
    report = DiffReport(label or f"pc=0x{entry:x}[x{n}]")
    ref_alive = [True] * n
    settled = [False] * n       # lane halted and verified; skip it

    while True:
        before = [eng.lane_instructions(i) for i in range(n)]
        blocks_before = eng.vector_blocks
        eng_alive = eng.step_unit()
        report.blocks += eng.vector_blocks - blocks_before
        report.boundaries += 1
        for i in range(n):
            if settled[i]:
                continue
            ref = refs[i]
            for _ in range(eng.lane_instructions(i) - before[i]):
                if not ref.step_instruction():
                    ref_alive[i] = False
                    break
            if ref.cycle > max_cycles:
                raise RuntimeError(
                    f"{report.label}: no halt within {max_cycles} cycles")
            divergence = compare_lane_state(ref, eng, i)
            if divergence is None and ref_alive[i] == eng.lane_done(i):
                divergence = Divergence(
                    "halt", f"ref halted={not ref_alive[i]}",
                    f"lane halted={eng.lane_done(i)}",
                    eng.lane_pc(i), eng.lane_instructions(i))
            if divergence is not None:
                divergence.what = f"lane {i}: {divergence.what}"
                divergence.context = _context(refs[i])
                report.divergence = divergence
                report.instructions = sum(
                    eng.lane_instructions(j) for j in range(n))
                return report
            if eng.lane_done(i):
                settled[i] = True
        if not eng_alive:
            report.instructions = sum(
                eng.lane_instructions(j) for j in range(n))
            counters = eng.counters()
            report.notes.append(
                "  lanes: {lanes} | vector blocks {vector_blocks} | "
                "divergences {divergences} (demotions {demotions}, "
                "rejoins {rejoins}, fallback instructions "
                "{fallback_instructions})".format(**counters))
            return report


def diff_kernel_lanes(name: str, k: int, lanes: int, *,
                      max_cycles: int = 50_000_000) -> DiffReport:
    """Per-lane lock-step of one generated kernel: ``lanes`` prepared
    instances (distinct operands, same program) through the lane engine
    vs per-lane reference interpreters."""
    from repro.kernels.runner import KernelRunner

    cores, entry = KernelRunner(cache={}).prepare_lanes(name, k, lanes)
    return lockstep_lanes(cores, entry, label=f"{name}:{k}[x{lanes}]",
                          max_cycles=max_cycles)


def diff_kernel(name: str, k: int, *,
                max_cycles: int = 50_000_000) -> DiffReport:
    """Lock-step one generated kernel (same harness the measurements
    use) on the fast vs reference interpreters, then certify the
    dynamic superblock discovery against the static map."""
    from repro.kernels.runner import KernelRunner

    runner = KernelRunner(cache={})
    cpu, entry = runner.prepare(name, k)
    report = lockstep(cpu, entry, label=f"{name}:{k}",
                      max_cycles=max_cycles)
    certify_static(cpu, report)
    return report


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", nargs="*", metavar="NAME:K",
                        default=list(DEFAULT_KERNELS),
                        help="kernels to verify (default: one per "
                             "kernel family plus the serve plans)")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="write the full report (with divergence "
                             "details) to this file")
    parser.add_argument("--max-cycles", type=int, default=50_000_000)
    parser.add_argument("--lanes", nargs="+", type=int, metavar="N",
                        default=None,
                        help="verify the lane engine instead of the "
                             "scalar fast path: per-lane lock-step at "
                             "each of these batch sizes")
    args = parser.parse_args(argv)

    if args.lanes:
        from repro.pete.lanes import HAVE_NUMPY

        if not HAVE_NUMPY:
            raise SystemExit("diffexec: --lanes requires numpy")

    reports = []
    for token in args.kernels:
        name, _, k = token.partition(":")
        if not k:
            raise SystemExit(f"diffexec: bad kernel spec {token!r} "
                             f"(expected NAME:K, like os_mul:8)")
        try:
            if args.lanes:
                batch = [
                    diff_kernel_lanes(name, int(k), lanes,
                                      max_cycles=args.max_cycles)
                    for lanes in args.lanes
                ]
            else:
                batch = [diff_kernel(name, int(k),
                                     max_cycles=args.max_cycles)]
        except KeyError as exc:
            raise SystemExit(f"diffexec: {exc.args[0]}")
        for report in batch:
            reports.append(report)
            print(report.summary())
            if not report.ok:
                print(report.divergence.format())

    diverged = [r for r in reports if not r.ok]
    total = sum(r.instructions for r in reports)
    blocks = sum(r.blocks for r in reports)
    footer = (f"diffexec: {len(reports)} kernels, {total} instructions, "
              f"{blocks} superblocks, {len(diverged)} divergences")
    print(footer)

    if args.report:
        import pathlib

        path = pathlib.Path(args.report)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = "\n\n".join(r.format() for r in reports)
        path.write_text(body + "\n\n" + footer + "\n")
        print(f"(report: {path})")
    return 1 if diverged else 0


if __name__ == "__main__":
    sys.exit(main())
