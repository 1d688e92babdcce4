"""Telemetry-off overhead guard for the obs sites on a kernel path.

Mirrors the stripped-replica guard in ``tests/trace/test_overhead``:
the obs instrumentation contract is ``tel = obs.get()`` plus
``if tel is not None:`` blocks, ``obs.span`` regions (a shared no-op
while disabled) and the always-on ``obs.count`` cold-path counts.
``Pete.run`` carries no obs site; the lane engine does, in
``LaneEngine.run`` and in ``_lane_code``, the block compiler entry that
``LaneEngine._compile_at`` and ``_exec_slot`` reach.  This test
reconstructs the pre-telemetry engine by stripping exactly those lines
from the live source, verifies the replica is cycle-exact, then checks
instrumented warm lane throughput (instruction-weighted, Table 7.1
GF(p) subset, obs disabled) stays within 5% of the replica.
"""

import inspect
import textwrap
import time

import pytest

pytest.importorskip("numpy")

from repro.pete import lanes as lanes_module  # noqa: E402
from repro.pete.lanes import LaneEngine  # noqa: E402

#: acceptance bound: <= 5% overhead with telemetry off
OVERHEAD_BOUND = 1.05

#: Table 7.1 GF(p) kernel subset (same as benchmarks/bench_lanes.py)
KERNELS = (
    ("mp_add", 8), ("mp_sub", 8), ("os_mul", 8),
    ("ps_mul_ext", 8), ("ps_sqr_ext", 8), ("red_p192", 6),
)
LANES = 4
TRIALS = 4
INNER = 6

#: single statements the telemetry added (each becomes ``pass``)
_STRIP_LINES = ("tel = obs.get()", "obs.count(")
#: guarded blocks the telemetry added (body stripped with them)
_STRIP_BLOCKS = ("if tel is not None:",)
#: span regions: the ``with`` goes, its body stays
_UNWRAP = ("with obs.span(",)

#: the replica's globals: the lane module's, with the stripped
#: ``_lane_code`` in place of the live one
_NAMESPACE = dict(vars(lanes_module))
_STRIPPED_SOURCES: dict = {}


def _stripped(fn):
    """``fn`` with every telemetry line/block (and nothing else)
    removed, compiled against the replica's globals."""
    src = textwrap.dedent(inspect.getsource(fn))
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
            out.append(" " * indent + "pass")
            continue
        if any(stripped.startswith(w) for w in _UNWRAP):
            out.append(" " * indent + "if True:")
            continue
        out.append(line)
    body = "\n".join(out)
    namespace: dict = {}
    exec(compile(body, f"<stripped {fn.__name__}>", "exec"), _NAMESPACE,
         namespace)
    _STRIPPED_SOURCES[fn.__name__] = body
    return namespace[fn.__name__]


_NAMESPACE["_lane_code"] = _stripped(lanes_module._lane_code)


class StrippedLaneEngine(LaneEngine):
    """Faithful replica of the pre-telemetry lane engine."""

    run = _stripped(LaneEngine.run)
    _compile_at = _stripped(LaneEngine._compile_at)
    _exec_slot = _stripped(LaneEngine._exec_slot)


def _stripped_source_is_really_different():
    live = (inspect.getsource(lanes_module._lane_code)
            + inspect.getsource(LaneEngine.run))
    replica = "".join(_STRIPPED_SOURCES.values())
    return ("obs.count" in live and "obs.get" in live
            and "obs.span" in live and "obs." not in replica)


def _engine(cores, stripped: bool):
    cls = StrippedLaneEngine if stripped else LaneEngine
    return cls([core.clone() for core in cores])


def _lane_stats(cores, entry, stripped: bool):
    engine = _engine(cores, stripped).run(entry)
    return [engine.lane_stats(i) for i in range(len(cores))]


def _time_warm(cores, entry, stripped: bool) -> float:
    """Best per-run wall-clock over TRIALS batches of INNER engines."""
    best = float("inf")
    for _ in range(TRIALS):
        engines = [_engine(cores, stripped) for _ in range(INNER)]
        t0 = time.perf_counter()
        for engine in engines:
            engine.run(entry)
        best = min(best, (time.perf_counter() - t0) / INNER)
    return best


def _prepared():
    from repro.kernels.runner import KernelRunner

    runner = KernelRunner(cache={})
    return [(name, k, *runner.prepare_lanes(name, k, LANES))
            for name, k in KERNELS]


def _clear_code_caches():
    lanes_module._LANE_CODE_CACHE.clear()
    lanes_module._PROGRAM_MAPS.clear()


def test_stripping_removed_the_instrumentation():
    assert _stripped_source_is_really_different()


def test_stripped_replica_is_cycle_exact():
    for name, k, cores, entry in _prepared():
        _clear_code_caches()
        stripped = _lane_stats(cores, entry, stripped=True)
        _clear_code_caches()
        instrumented = _lane_stats(cores, entry, stripped=False)
        assert stripped == instrumented, f"{name}:{k} diverged"


def test_obs_disabled_overhead_within_bound():
    prepared = _prepared()
    # warm the shared block maps so both variants hit compiled closures
    for _, _, cores, entry in prepared:
        _lane_stats(cores, entry, stripped=False)
        _lane_stats(cores, entry, stripped=True)

    # interleave and retry whole attempts (as the tracer guard does) so
    # transient machine load cannot fail a near-zero expected overhead
    weighted = float("inf")
    for _attempt in range(3):
        total_instr = 0
        acc = 0.0
        for name, k, cores, entry in prepared:
            base = _time_warm(cores, entry, stripped=True)
            instrumented = _time_warm(cores, entry, stripped=False)
            instr = sum(s.instructions
                        for s in _lane_stats(cores, entry, stripped=False))
            total_instr += instr
            acc += instr * (instrumented / base)
        weighted = min(weighted, acc / total_instr)
        if weighted <= OVERHEAD_BOUND:
            break
    assert weighted <= OVERHEAD_BOUND, (
        f"obs-disabled lane-engine overhead {weighted:.3f}x exceeds "
        f"{OVERHEAD_BOUND}x (instruction-weighted, GF(p) subset)")
