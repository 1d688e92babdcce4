"""Lane-parallel engine: bit-identity, divergence fallback, runner batches.

Every test here needs numpy (the engine's dense per-lane state); the
module skips cleanly on interpreters without it.
"""

import pytest

np = pytest.importorskip("numpy")

from repro import obs
from repro.kernels.runner import KernelRunner
from repro.pete import lanes
from repro.pete.diffexec import diff_kernel_lanes, lockstep_lanes
from repro.pete.lanes import LaneEngine


def _lane_stats(eng, lane):
    stats = eng.lane_stats(lane)
    return {name: int(getattr(stats, name))
            for name in ("cycles", "instructions", "stall_cycles")}


# ---------------------------------------------------------------------------
# lock-step bit-identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name,k,lanes", [
    ("mp_add", 8, 1),
    ("mp_add", 8, 7),
    ("os_mul", 8, 16),
    ("ps_mul_ext", 8, 5),
    ("red_p192", 6, 32),
    ("bsqr_table", 6, 4),
    ("speck64", 1, 3),
])
def test_kernels_lockstep_bit_identical(name, k, lanes):
    report = diff_kernel_lanes(name, k, lanes)
    assert report.ok, report.divergence.format()
    assert report.boundaries > 0


def test_divergent_scalar_kernel_demotes_and_rejoins():
    """scalar_daa's per-lane digit paths force real branch divergence:
    minority lanes must demote to scalar bridges, advance on the
    reference interpreter, and re-join bit-identically."""
    runner = KernelRunner(cache={})
    cores, entry = runner.prepare_lanes("scalar_daa", 16, 24)
    report = lockstep_lanes(cores, entry, label="scalar_daa:16[x24]")
    assert report.ok, report.divergence.format()
    counters = None
    for note in report.notes:
        if "demotions" in note:
            counters = note
    assert counters is not None


def test_divergence_counters_expose_fallback_traffic():
    runner = KernelRunner(cache={})
    cores, entry = runner.prepare_lanes("scalar_daa", 16, 24)
    eng = LaneEngine(cores).run(entry)
    c = eng.counters()
    assert c["lanes"] == 24
    assert c["divergences"] > 0
    assert c["demotions"] > 0
    assert c["rejoins"] > 0
    assert c["fallback_instructions"] > 0
    assert all(eng.lane_done(i) for i in range(24))


def test_second_engine_over_a_run_program_reuses_its_blocks(monkeypatch):
    """Block maps belong to the program image: a second engine over a
    program an earlier engine ran -- divergent lanes and delay slots
    included -- neither discovers nor compiles."""
    runner = KernelRunner(cache={})
    cores, entry = runner.prepare_lanes("scalar_daa", 16, 24)
    twins = [core.clone() for core in cores]
    first = LaneEngine(cores).run(entry)
    assert first.demotions > 0

    discovered = []

    def spy(real):
        def discover(decode, pc, *args, **kwargs):
            discovered.append(pc)
            return real(decode, pc, *args, **kwargs)
        return discover

    monkeypatch.setattr(lanes, "discover", spy(lanes.discover))
    base = obs.counts()
    second = LaneEngine(twins).run(entry)
    assert discovered == []
    moved = obs.counts_since(base)
    assert moved["lane_blocks_compiled"] == 0
    for i in range(len(twins)):
        assert second.lane_stats(i) == first.lane_stats(i)


def test_lanes_match_scalar_reference_stats_exactly():
    """Per-lane cycles/instructions out of the engine equal a scalar
    reference run of the same prepared core."""
    runner = KernelRunner(cache={})
    cores, entry = runner.prepare_lanes("red_p192", 6, 8)
    refs = [core.clone() for core in cores]
    eng = LaneEngine(cores).run(entry)
    for i, ref in enumerate(refs):
        stats = ref.run(entry)
        assert int(eng.lane_cycle(i)) == stats.cycles
        assert int(eng.lane_instructions(i)) == stats.instructions
        assert _lane_stats(eng, i)["stall_cycles"] == stats.stall_cycles


def test_single_lane_batch_works():
    runner = KernelRunner(cache={})
    cores, entry = runner.prepare_lanes("mp_add", 8, 1)
    ref = cores[0].clone()
    eng = LaneEngine(cores).run(entry)
    assert int(eng.lane_cycle(0)) == ref.run(entry).cycles


# ---------------------------------------------------------------------------
# runner-prepared batches
# ---------------------------------------------------------------------------


def test_measure_batch_reports_per_lane_results():
    """``prepare_lanes`` + :class:`LaneEngine`: one result per lane."""
    runner = KernelRunner(cache={})
    cores, entry = runner.prepare_lanes("os_mul", 8, 6)
    eng = LaneEngine(cores).run(entry)
    assert eng.counters()["lanes"] == 6
    assert all(eng.lane_done(i) for i in range(6))
    assert all(eng.lane_cycle(i) > 0 for i in range(6))
    assert all(eng.lane_instructions(i) > 0 for i in range(6))


def test_measure_batch_matches_scalar_measure():
    """Lane cycles equal the scalar path's: each lane's reference
    clone, and ``measure`` of the (constant-time) kernel."""
    runner = KernelRunner(cache={})
    cores, entry = runner.prepare_lanes("ps_mul_ext", 8, 4)
    refs = [core.clone() for core in cores]
    eng = LaneEngine(cores).run(entry)
    cycles = tuple(int(eng.lane_cycle(i)) for i in range(4))
    assert cycles == tuple(ref.run(entry).cycles for ref in refs)
    scalar = KernelRunner(cache={}).measure("ps_mul_ext", 8)
    assert cycles == (scalar.cycles,) * 4
