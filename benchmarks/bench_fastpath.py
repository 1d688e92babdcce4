"""Superblock fast-path throughput benchmark (BENCH_fastpath.json).

Times the run phase of the Table 7.1 GF(p) kernel subset on the
reference interpreter (:func:`repro.pete.diffexec.run_reference`) and
block-threaded through the superblock fast path (``Pete.run``,
:mod:`repro.pete.fastpath`), cold (module caches cleared, so
discovery + compilation are paid) and warm (the production steady
state: the runner's median-of-3 trials and every later measurement hit
the shared block map).  Each kernel is prepared once and cloned per
trial, so both interpreters consume byte-identical inputs; the final
architectural stats are asserted equal before any timing is reported.

With ``--batch``, benchmarks the lane-parallel engine
(:mod:`repro.pete.lanes`) instead: the same kernel subset at batch
widths 1-1024, instances/sec per width, against the warm scalar
fast-path rate as baseline -- written to ``OUT_DIR/BENCH_lanes.json``.
Both sides time the run phase only (prepare/engine construction
excluded), so the comparison is lock-step execution vs scalar
execution, not setup costs.

Usage: ``PYTHONPATH=src python benchmarks/bench_fastpath.py
[OUT_DIR] [--batch]`` (default ``results/smoke``).
"""

from __future__ import annotations

import pathlib
import sys
import time
from collections import Counter

#: Table 7.1 GF(p) kernel subset: field add/sub, school-book and
#: product-scanning multiply, squaring, NIST P-192 reduction.
KERNELS = (
    ("mp_add", 8), ("mp_sub", 8), ("os_mul", 8),
    ("ps_mul_ext", 8), ("ps_sqr_ext", 8), ("red_p192", 6),
)
TRIALS = 5
INNER = 10

#: lane-engine batch widths benchmarked by ``--batch``
BATCHES = (1, 4, 16, 64, 256, 1024)


def _time_run(cpu, entry, run, *,
              trials: int = TRIALS, inner: int = INNER) -> float:
    """Best per-run wall-clock of ``run(clone, entry)`` over ``trials``
    batches of ``inner`` clones."""
    best = float("inf")
    for _ in range(trials):
        clones = [cpu.clone() for _ in range(inner)]
        t0 = time.perf_counter()
        for c in clones:
            run(c, entry)
        best = min(best, (time.perf_counter() - t0) / inner)
    return best


def _block_threaded(cpu, entry):
    return cpu.run(entry)


def _bench_lanes(out_dir: pathlib.Path) -> int:
    """Lane-engine throughput sweep -> ``OUT_DIR/BENCH_lanes.json``."""
    t0 = time.perf_counter()

    from repro.kernels.runner import KernelRunner
    from repro.pete.lanes import HAVE_NUMPY

    if not HAVE_NUMPY:
        print("bench_fastpath: --batch requires numpy",
              file=sys.stderr)
        return 1
    from repro import obs
    from repro.pete.lanes import LaneEngine

    runner = KernelRunner(cache={})
    counts_base = obs.counts()
    engines: Counter = Counter()   # summed LaneEngine.counters()
    rows = []
    width_cols = " ".join(f"{f'x{b}':>9}" for b in BATCHES)
    print(f"{'kernel':<14} {'fast1/s':>9} {width_cols}  "
          f"{'x64 spdup':>9}")
    for name, k in KERNELS:
        cpu, entry = runner.prepare(name, k)
        # scalar fast-path baseline: warm the shared block map, then
        # time the run phase exactly as the scalar benchmark does
        cpu.clone().run(entry)
        fast1_rate = 1.0 / _time_run(cpu, entry, _block_threaded)

        # warm the lane code cache so every width measures steady state
        warm_cores, warm_entry = runner.prepare_lanes(name, k, 2)
        engines.update(LaneEngine(warm_cores).run(warm_entry).counters())
        engines["runs"] += 1

        per_batch = {}
        for width in BATCHES:
            cores, entry_b = runner.prepare_lanes(name, k, width)
            trials = 5 if width <= 64 else 2
            best = float("inf")
            for _ in range(trials):
                engine = LaneEngine(cores)
                t1 = time.perf_counter()
                engine.run(entry_b)
                best = min(best, time.perf_counter() - t1)
                engines.update(engine.counters())
                engines["runs"] += 1
            per_batch[str(width)] = {
                "wall_ms": round(best * 1e3, 3),
                "per_s": round(width / best, 1),
            }
        speedup64 = per_batch["64"]["per_s"] / fast1_rate
        rows.append({
            "kernel": f"{name}:{k}",
            "fast1_per_s": round(fast1_rate, 1),
            "batch": per_batch,
            "speedup_vs_batch1_fast": round(speedup64, 2),
        })
        rates = " ".join(f"{per_batch[str(b)]['per_s']:>9.0f}"
                         for b in BATCHES)
        print(f"{name + ':' + str(k):<14} {fast1_rate:>9.0f} {rates}  "
              f"{speedup64:>8.2f}x")

    # subset throughput ratio (headline) + per-kernel geomean
    prod = 1.0
    for r in rows:
        prod *= r["speedup_vs_batch1_fast"]
    geomean64 = prod ** (1.0 / len(rows))
    total64 = sum(r["batch"]["64"]["per_s"] for r in rows)
    total_fast1 = sum(r["fast1_per_s"] for r in rows)
    agg64 = total64 / total_fast1
    print(f"\naggregate batch-64 vs scalar fast path: {agg64:.2f}x "
          f"subset throughput ({total64:,.0f} vs {total_fast1:,.0f} "
          f"instances/s), {geomean64:.2f}x per-kernel geomean")

    from repro.trace.record import bench_record, write_record

    record = bench_record(
        "lanes", kind="lanes",
        config=f"GF(p) subset, batches {BATCHES}",
        cycles=0, wall_s=round(time.perf_counter() - t0, 3),
        data={"batches": list(BATCHES),
              "kernels": rows,
              "speedup_vs_batch1_fast": round(agg64, 2),
              "speedup_geomean": round(geomean64, 2),
              "batch64_per_s": round(total64, 1),
              "fast1_per_s": round(total_fast1, 1),
              "engine": {**engines,
                         **{name: n for name, n in
                            obs.counts_since(counts_base).items()
                            if name.startswith("lane_")}}})
    path = write_record(record, str(out_dir))
    print(f"lanes record: {path}")
    return 0


def main(argv: list[str]) -> int:
    flags = [a for a in argv[1:] if a.startswith("-")]
    positional = [a for a in argv[1:] if not a.startswith("-")]
    unknown = set(flags) - {"--batch"}
    if unknown:
        print(f"bench_fastpath: unknown flag(s) "
              f"{', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    out_dir = pathlib.Path(positional[0] if positional
                           else "results/smoke")
    out_dir.mkdir(parents=True, exist_ok=True)
    if "--batch" in flags:
        return _bench_lanes(out_dir)
    t0 = time.perf_counter()

    from repro.kernels.runner import KernelRunner
    from repro.pete import fastpath
    from repro.pete.diffexec import run_reference

    runner = KernelRunner(cache={})
    rows = []
    print(f"{'kernel':<14} {'instr':>6} {'ref':>9} {'fast cold':>10} "
          f"{'fast warm':>10} {'speedup':>8}")
    for name, k in KERNELS:
        cpu, entry = runner.prepare(name, k)

        ref_stats = run_reference(cpu.clone(), entry)
        fast_stats = cpu.clone().run(entry)
        assert ref_stats == fast_stats, \
            f"{name}:{k}: fast-path stats diverge from reference"

        t_ref = _time_run(cpu, entry, run_reference)
        fastpath._CODE_CACHE.clear()
        fastpath._BLOCK_MAPS.clear()
        t_cold = _time_run(cpu, entry, _block_threaded, trials=1,
                           inner=1)
        t_warm = _time_run(cpu, entry, _block_threaded)

        speedup = t_ref / t_warm
        rows.append({
            "kernel": f"{name}:{k}",
            "instructions": ref_stats.instructions,
            "cycles": ref_stats.cycles,
            "ref_us": round(t_ref * 1e6, 1),
            "fast_cold_us": round(t_cold * 1e6, 1),
            "fast_warm_us": round(t_warm * 1e6, 1),
            "speedup_warm": round(speedup, 2),
            "minstr_per_s_fast": round(
                ref_stats.instructions / t_warm / 1e6, 3),
        })
        print(f"{name + ':' + str(k):<14} "
              f"{ref_stats.instructions:>6} {t_ref * 1e6:>8.0f}us "
              f"{t_cold * 1e6:>9.0f}us {t_warm * 1e6:>9.0f}us "
              f"{speedup:>7.2f}x")

    total_instr = sum(r["instructions"] for r in rows)
    agg = (sum(r["instructions"] for r in rows)
           / sum(r["instructions"] / r["speedup_warm"] for r in rows))
    print(f"\naggregate (instruction-weighted harmonic mean): "
          f"{agg:.2f}x over {total_instr} instructions")

    from repro.trace.record import bench_record, write_record

    record = bench_record(
        "fastpath", config="GF(p) subset, warm shared block map",
        cycles=sum(r["cycles"] for r in rows),
        wall_s=time.perf_counter() - t0,
        data={"kernels": rows,
              "aggregate_speedup_warm": round(agg, 2),
              "trials": TRIALS, "inner": INNER})
    path = write_record(record, str(out_dir))
    print(f"fastpath record: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
