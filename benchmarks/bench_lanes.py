"""Lane-engine batch throughput benchmark (BENCH_lanes.json).

Benchmarks the lane-parallel engine (:mod:`repro.pete.lanes`) on the
Table 7.1 GF(p) kernel subset at batch widths 1-1024: instances/sec
per width, against one core at a time on ``Pete.run`` as the scalar
baseline, written to ``OUT_DIR/BENCH_lanes.json``.  Both sides time
the run phase only (prepare/engine construction excluded), so the
comparison is lock-step execution vs scalar execution, not setup
costs.  Requires numpy.

Usage: ``PYTHONPATH=src python benchmarks/bench_lanes.py [OUT_DIR]``
(default ``results/smoke``).
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

#: lane-engine batch widths
BATCHES = (1, 4, 16, 64, 256, 1024)


def _time_scalar(cpu, entry) -> float:
    """Best per-run wall-clock of ``Pete.run`` over ``TRIALS`` batches
    of ``INNER`` clones."""
    best = float("inf")
    for _ in range(TRIALS):
        clones = [cpu.clone() for _ in range(INNER)]
        t0 = time.perf_counter()
        for c in clones:
            c.run(entry)
        best = min(best, (time.perf_counter() - t0) / INNER)
    return best


def main(argv: list[str]) -> int:
    if len(argv) > 2 or any(a.startswith("-") for a in argv[1:]):
        print("usage: bench_lanes.py [OUT_DIR]", file=sys.stderr)
        return 2
    out_dir = pathlib.Path(argv[1] if len(argv) > 1 else "results/smoke")
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    from repro.kernels.runner import KernelRunner
    from repro.pete.lanes import HAVE_NUMPY

    if not HAVE_NUMPY:
        print("bench_lanes: the lane engine requires numpy",
              file=sys.stderr)
        return 1
    from repro import obs
    from repro.pete.lanes import LaneEngine

    runner = KernelRunner(cache={})
    counts_base = obs.counts()
    engines: Counter = Counter()   # summed LaneEngine.counters()
    rows = []
    width_cols = " ".join(f"{f'x{b}':>9}" for b in BATCHES)
    print(f"{'kernel':<14} {'scalar/s':>9} {width_cols}  "
          f"{'x64 spdup':>9}")
    for name, k in KERNELS:
        cpu, entry = runner.prepare(name, k)
        scalar_rate = 1.0 / _time_scalar(cpu, entry)

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
        speedup64 = per_batch["64"]["per_s"] / scalar_rate
        rows.append({
            "kernel": f"{name}:{k}",
            "scalar_per_s": round(scalar_rate, 1),
            "batch": per_batch,
            "speedup_vs_scalar": round(speedup64, 2),
        })
        rates = " ".join(f"{per_batch[str(b)]['per_s']:>9.0f}"
                         for b in BATCHES)
        print(f"{name + ':' + str(k):<14} {scalar_rate:>9.0f} {rates}  "
              f"{speedup64:>8.2f}x")

    # subset throughput ratio (headline) + per-kernel geomean
    prod = 1.0
    for r in rows:
        prod *= r["speedup_vs_scalar"]
    geomean64 = prod ** (1.0 / len(rows))
    total64 = sum(r["batch"]["64"]["per_s"] for r in rows)
    total_scalar = sum(r["scalar_per_s"] for r in rows)
    agg64 = total64 / total_scalar
    print(f"\naggregate batch-64 vs scalar Pete.run: {agg64:.2f}x "
          f"subset throughput ({total64:,.0f} vs {total_scalar:,.0f} "
          f"instances/s), {geomean64:.2f}x per-kernel geomean")

    from repro.trace.record import bench_record, write_record

    record = bench_record(
        "lanes", kind="lanes",
        config=f"GF(p) subset, batches {BATCHES}",
        cycles=0, wall_s=round(time.perf_counter() - t0, 3),
        data={"batches": list(BATCHES),
              "kernels": rows,
              "speedup_vs_scalar": round(agg64, 2),
              "speedup_geomean": round(geomean64, 2),
              "batch64_per_s": round(total64, 1),
              "scalar_per_s": round(total_scalar, 1),
              "engine": {**engines,
                         **{name: n for name, n in
                            obs.counts_since(counts_base).items()
                            if name.startswith("lane_")}}})
    path = write_record(record, str(out_dir))
    print(f"lanes record: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
