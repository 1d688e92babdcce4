"""Tracing-off overhead guard.

The instrumentation contract is one ``if self.tracer is not None:``
branch per site.  This test reconstructs the pre-instrumentation hot
loop by stripping exactly those blocks from the live source of Pete's
hot methods, verifies the stripped replica is cycle-exact, then checks
the instrumented interpreter (tracer off, run through ``Pete.run``)
stays within 10% of the replica's wall-clock.
"""

import inspect
import textwrap
import time

from repro.pete import assemble
from repro.pete import cpu as cpu_module
from repro.pete.cpu import Pete
from repro.pete.memory import RAM_BASE

#: acceptance bound: <= 10% overhead with tracing off
OVERHEAD_BOUND = 1.10

WORKLOAD = f"""
main:
    li $t0, 3000
    li $t1, {RAM_BASE}
loop:
    sw $t0, 0($t1)
    lw $t2, 0($t1)
    addiu $t2, $t2, 3
    mult $t2, $t0
    mflo $t3
    xor $t4, $t3, $t2
    sltu $t5, $t4, $t0
    addiu $t0, $t0, -1
    bne $t0, $zero, loop
    halt
"""


def _stripped(method):
    """The method with every ``if self.tracer is not None:`` block (and
    nothing else) removed, compiled in the cpu module's namespace."""
    src = textwrap.dedent(inspect.getsource(method))
    out: list[str] = []
    skip_indent = None
    for line in src.splitlines():
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if skip_indent is not None:
            if stripped and indent > skip_indent:
                continue
            skip_indent = None
        if stripped.startswith("if self.tracer is not None:"):
            skip_indent = indent
            continue
        out.append(line)
    namespace: dict = {}
    exec(compile("\n".join(out), f"<stripped {method.__name__}>", "exec"),
         vars(cpu_module), namespace)
    return namespace[method.__name__]


class UntracedPete(Pete):
    """Faithful replica of the pre-instrumentation interpreter."""


for _name in ("_fetch", "_wait_muldiv", "_branch", "_step"):
    setattr(UntracedPete, _name, _stripped(getattr(Pete, _name)))


def _run(cls, program):
    cpu = cls()
    cpu.load(program)
    return cpu.run(0)


def _best_time(cls, program, rounds):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        _run(cls, program)
        best = min(best, time.perf_counter() - start)
    return best


def test_stripped_replica_is_cycle_exact():
    program = assemble(WORKLOAD)
    assert (_run(UntracedPete, program).as_dict()
            == _run(Pete, program).as_dict())


def test_tracing_off_overhead_within_bound():
    program = assemble(WORKLOAD)
    # warm both classes (decode caches, import costs)
    _run(UntracedPete, program)
    _run(Pete, program)
    # interleave to share machine-load drift fairly; retry whole
    # attempts so a transient load spike cannot fail a ~3% overhead
    ratio = float("inf")
    for _attempt in range(3):
        base = instrumented = float("inf")
        for _ in range(5):
            base = min(base, _best_time(UntracedPete, program, 1))
            instrumented = min(instrumented, _best_time(Pete, program, 1))
        ratio = min(ratio, instrumented / base)
        if ratio <= OVERHEAD_BOUND:
            break
    assert ratio <= OVERHEAD_BOUND, (
        f"tracer-off overhead {ratio:.3f}x exceeds {OVERHEAD_BOUND}x")
