"""Lock-step differential verification of the lane engine.

Runs a batch of prepared cores through the lane engine
(:class:`repro.pete.lanes.LaneEngine`) and each core's clone on the
reference interpreter side by side: the engine advances one *unit* at
a time (a vector block, or one control instruction plus its delay
slot), every reference core is then stepped by the instructions its
lane retired, and each lane's complete architectural state -- PC,
registers, cycle, every ``CoreStats`` counter, the Hi/Lo/OvFlo
accumulator, RAM contents, the branch predictor and the load-use
latch -- is compared at every unit boundary.  The first divergence is
reported with disassembly context around the offending PC.

This is the correctness tool that lets engine work move fast: any
change to the lane engine (or the reference core) that breaks the
stats/energy-exactness contract is localized to the first diverging
lane, unit and quantity, not discovered as a wrong served number.

Usage::

    PYTHONPATH=src python -m repro.pete.diffexec \\
        --kernels os_mul:8 comb_mul:6 --lanes 1 4 64

runs the named kernels (default: a representative set covering the
prime-field, binary-field, scalar and symmetric kernel families, and
every kernel the signing service serves) at each batch width (default
1, 4 and 64; requires numpy), prints one summary line per kernel and
width and exits non-zero on a divergence.  ``--report PATH`` writes
the full report (divergence details included) for CI to upload.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.pete.cpu import Pete

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
    """The first state mismatch between a reference core and the
    engine under test."""

    what: str                  # e.g. "regs[$t0]", "cycle", "stats.cycles"
    ref_value: object
    engine_value: object
    pc: int                    # engine-side PC at the boundary
    instructions: int          # instructions retired when it surfaced
    context: str = ""          # disassembly window around the PC

    def format(self) -> str:
        lines = [
            f"divergence after {self.instructions} instructions "
            f"at pc=0x{self.pc:06x}:",
            f"  {self.what}: reference={self.ref_value!r} "
            f"engine={self.engine_value!r}",
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
    blocks: int = 0            # vector block executions
    boundaries: int = 0        # state comparisons performed
    divergence: Divergence | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def summary(self) -> str:
        status = "ok" if self.ok else "DIVERGED"
        return (f"{self.label:<22} {status:<9} "
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
# Comparison primitives
# ---------------------------------------------------------------------------


def _reg_name(index: int) -> str:
    from repro.pete.isa import REGISTER_NAMES

    return f"regs[${REGISTER_NAMES[index]}]"


def compare_state(ref: Pete, other: Pete) -> Divergence | None:
    """First architectural difference between two cores, or ``None``."""

    def div(what, ref_value, engine_value):
        return Divergence(what, ref_value, engine_value, other.pc,
                          other.stats.instructions)

    if ref.pc != other.pc:
        return div("pc", hex(ref.pc), hex(other.pc))
    if ref.cycle != other.cycle:
        return div("cycle", ref.cycle, other.cycle)
    if ref.regs != other.regs:
        for i, (a, b) in enumerate(zip(ref.regs, other.regs)):
            if a != b:
                return div(_reg_name(i), a, b)
    if ref.muldiv.acc != other.muldiv.acc:
        return div("muldiv.acc", hex(ref.muldiv.acc),
                   hex(other.muldiv.acc))
    if ref.muldiv.busy_until != other.muldiv.busy_until:
        return div("muldiv.busy_until", ref.muldiv.busy_until,
                   other.muldiv.busy_until)
    if ref.muldiv.issues != other.muldiv.issues:
        return div("muldiv.issues", ref.muldiv.issues,
                   other.muldiv.issues)
    if ref._last_load_reg != other._last_load_reg:
        return div("load-use latch", ref._last_load_reg,
                   other._last_load_reg)
    stats_diff = ref.stats.diff(other.stats)
    if stats_diff:
        name, (a, b) = next(iter(stats_diff.items()))
        return div(f"stats.{name}", a, b)
    if ref._predictor != other._predictor:
        return div("branch predictor", ref._predictor, other._predictor)
    if ref.mem.ram != other.mem.ram:
        for offset, (a, b) in enumerate(zip(ref.mem.ram, other.mem.ram)):
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

    def div(what, ref_value, engine_value):
        return Divergence(what, ref_value, engine_value, eng.lane_pc(lane),
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
                        default=[1, 4, 64],
                        help="per-lane lock-step at each of these batch "
                             "sizes (default: 1 4 64)")
    args = parser.parse_args(argv)

    from repro.pete.lanes import HAVE_NUMPY

    if not HAVE_NUMPY:
        raise SystemExit("diffexec: the lane engine requires numpy")

    reports = []
    for token in args.kernels:
        name, _, k = token.partition(":")
        if not k:
            raise SystemExit(f"diffexec: bad kernel spec {token!r} "
                             f"(expected NAME:K, like os_mul:8)")
        try:
            batch = [
                diff_kernel_lanes(name, int(k), lanes,
                                  max_cycles=args.max_cycles)
                for lanes in args.lanes
            ]
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
    footer = (f"diffexec: {len(reports)} kernel batches, {total} "
              f"instructions, {blocks} vector blocks, "
              f"{len(diverged)} divergences")
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
