"""Telemetry-off overhead guard for the fast path (satellite: ISSUE 8).

Mirrors the PR 2 stripped-replica guard (``tests/trace/test_overhead``):
the obs instrumentation contract is ``tel = obs.get()`` plus
``if tel is not None:`` blocks (and the always-on ``obs.count``
cold-path counts).  This test reconstructs the pre-telemetry fast
path by stripping exactly those lines from the live source of
``Fastpath._compile_at`` and the block-threaded ``Pete.run`` loop,
verifies the replica is cycle-exact, then checks instrumented warm
fast-path throughput (instruction-weighted, Table 7.1 GF(p) subset,
obs disabled) stays within 5% of the replica.
"""

import inspect
import textwrap
import time
import types

from repro.pete import cpu as cpu_module
from repro.pete import fastpath as fastpath_module
from repro.pete.cpu import Pete
from repro.pete.fastpath import Fastpath

#: acceptance bound: <= 5% overhead with telemetry off
OVERHEAD_BOUND = 1.05

#: Table 7.1 GF(p) kernel subset (same as benchmarks/bench_fastpath.py)
KERNELS = (
    ("mp_add", 8), ("mp_sub", 8), ("os_mul", 8),
    ("ps_mul_ext", 8), ("ps_sqr_ext", 8), ("red_p192", 6),
)
TRIALS = 4
INNER = 6

#: single statements the telemetry PR added to the fast path
_STRIP_LINES = ("tel = obs.get()", "t0 = time.perf_counter()",
                "obs.count(")
#: guarded blocks the telemetry PR added (body stripped with them)
_STRIP_BLOCKS = ("if tel is not None:",
                 "if self.tracer is not None or self.trace_enabled:")


def _stripped(method, module):
    """The method with every telemetry line/block (and nothing else)
    removed, compiled in its defining module's namespace."""
    src = textwrap.dedent(inspect.getsource(method))
    out: list[str] = []
    skip_indent = None
    for line in src.splitlines():
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        if skip_indent is not None:
            # blank lines inside a guarded block carry no indent;
            # keep skipping until a non-blank line dedents past the if
            if not stripped or indent > skip_indent:
                continue
            skip_indent = None
        if any(stripped.startswith(b) for b in _STRIP_BLOCKS):
            skip_indent = indent
            continue
        if any(stripped.startswith(s) for s in _STRIP_LINES):
            continue
        out.append(line)
    namespace: dict = {}
    exec(compile("\n".join(out), f"<stripped {method.__name__}>", "exec"),
         vars(module), namespace)
    fn = namespace[method.__name__]
    _STRIPPED_SOURCES[method.__name__] = "\n".join(out)
    return fn


_STRIPPED_SOURCES: dict = {}


class StrippedFastpath(Fastpath):
    """Faithful replica of the pre-telemetry block compiler."""

    _compile_at = _stripped(Fastpath._compile_at, fastpath_module)


_stripped_run = _stripped(Pete.run, cpu_module)


def _stripped_source_is_really_different():
    live = (inspect.getsource(Fastpath._compile_at)
            + inspect.getsource(Pete.run))
    replica = "".join(_STRIPPED_SOURCES.values())
    return ("obs.get" in live and "note_deopt" in live
            and "obs.get" not in replica and "note_deopt" not in replica
            and "obs.count" not in replica)


def _fresh(cpu, stripped: bool):
    clone = cpu.clone()
    if stripped:
        clone.fastpath = StrippedFastpath(clone)
        clone.run = types.MethodType(_stripped_run, clone)
    return clone


def _run(cpu, entry, stripped: bool):
    return _fresh(cpu, stripped).run(entry)


def _time_warm(cpu, entry, stripped: bool) -> float:
    """Best per-run wall-clock over TRIALS batches of INNER clones."""
    best = float("inf")
    for _ in range(TRIALS):
        clones = [_fresh(cpu, stripped) for _ in range(INNER)]
        t0 = time.perf_counter()
        for clone in clones:
            clone.run(entry)
        best = min(best, (time.perf_counter() - t0) / INNER)
    return best


def _prepared():
    from repro.kernels.runner import KernelRunner

    runner = KernelRunner(cache={})
    return [(name, k, *runner.prepare(name, k)) for name, k in KERNELS]


def test_stripping_removed_the_instrumentation():
    assert _stripped_source_is_really_different()


def test_stripped_replica_is_cycle_exact():
    for name, k, cpu, entry in _prepared():
        fastpath_module._CODE_CACHE.clear()
        fastpath_module._BLOCK_MAPS.clear()
        stripped = _run(cpu, entry, stripped=True)
        fastpath_module._CODE_CACHE.clear()
        fastpath_module._BLOCK_MAPS.clear()
        instrumented = _run(cpu, entry, stripped=False)
        assert stripped == instrumented, f"{name}:{k} diverged"


def test_obs_disabled_overhead_within_bound():
    prepared = _prepared()
    # warm the shared block maps so both variants hit compiled closures
    for _, _, cpu, entry in prepared:
        _run(cpu, entry, stripped=False)
        _run(cpu, entry, stripped=True)

    # interleave and retry whole attempts (PR 2 pattern) so transient
    # machine load cannot fail a near-zero expected overhead
    weighted = float("inf")
    for _attempt in range(3):
        total_instr = 0
        acc = 0.0
        for name, k, cpu, entry in prepared:
            base = _time_warm(cpu, entry, stripped=True)
            instrumented = _time_warm(cpu, entry, stripped=False)
            instr = _run(cpu, entry, stripped=False).instructions
            total_instr += instr
            acc += instr * (instrumented / base)
        weighted = min(weighted, acc / total_instr)
        if weighted <= OVERHEAD_BOUND:
            break
    assert weighted <= OVERHEAD_BOUND, (
        f"obs-disabled fast-path overhead {weighted:.3f}x exceeds "
        f"{OVERHEAD_BOUND}x (instruction-weighted, GF(p) subset)")
