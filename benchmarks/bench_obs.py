"""Telemetry-plane cost benchmark (BENCH_obs.json).

Times ``Pete.run`` on the Table 7.1 GF(p) kernel subset three ways:
telemetry disabled (the production default), telemetry enabled (spans
+ counters live), and telemetry enabled with a ``pete.kernel`` span
wrapped around every run (the worst realistic case: one span per task,
as the sweep engine does).  The enabled ratios document what ``--obs``
costs around a kernel run; the disabled path's cost is bounded by the
``tests/obs/test_overhead`` guard at 1.05x.

Usage: ``PYTHONPATH=src python benchmarks/bench_obs.py [OUT_DIR]``
(default ``results/smoke``).
"""

from __future__ import annotations

import pathlib
import sys
import time

#: Table 7.1 GF(p) kernel subset (same as benchmarks/bench_lanes.py)
KERNELS = (
    ("mp_add", 8), ("mp_sub", 8), ("os_mul", 8),
    ("ps_mul_ext", 8), ("ps_sqr_ext", 8), ("red_p192", 6),
)
TRIALS = 5
INNER = 10


def _time_run(cpu, entry, *, spanned: bool) -> float:
    """Best per-run wall-clock over TRIALS batches of INNER clones."""
    from repro import obs

    best = float("inf")
    for _ in range(TRIALS):
        clones = [cpu.clone() for _ in range(INNER)]
        t0 = time.perf_counter()
        for c in clones:
            if spanned:
                with obs.span("pete.kernel"):
                    c.run(entry)
            else:
                c.run(entry)
        best = min(best, (time.perf_counter() - t0) / INNER)
    return best


def main(argv: list[str]) -> int:
    out_dir = pathlib.Path(argv[1] if len(argv) > 1 else "results/smoke")
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()

    from repro import obs
    from repro.kernels.runner import KernelRunner

    obs.disable()
    runner = KernelRunner(cache={})
    rows = []
    print(f"{'kernel':<14} {'instr':>6} {'off':>9} {'on':>9} "
          f"{'on+span':>9} {'on/off':>7} {'span/off':>8}")
    for name, k in KERNELS:
        cpu, entry = runner.prepare(name, k)
        stats = cpu.clone().run(entry)   # warm-up run

        t_off = _time_run(cpu, entry, spanned=False)
        obs.enable()
        t_on = _time_run(cpu, entry, spanned=False)
        t_span = _time_run(cpu, entry, spanned=True)
        obs.disable()

        rows.append({
            "kernel": f"{name}:{k}",
            "instructions": stats.instructions,
            "cycles": stats.cycles,
            "obs_off_us": round(t_off * 1e6, 1),
            "obs_on_us": round(t_on * 1e6, 1),
            "obs_on_span_us": round(t_span * 1e6, 1),
            "ratio_on": round(t_on / t_off, 3),
            "ratio_on_span": round(t_span / t_off, 3),
        })
        print(f"{name + ':' + str(k):<14} {stats.instructions:>6} "
              f"{t_off * 1e6:>8.0f}us {t_on * 1e6:>8.0f}us "
              f"{t_span * 1e6:>8.0f}us {t_on / t_off:>6.2f}x "
              f"{t_span / t_off:>7.2f}x")

    total_instr = sum(r["instructions"] for r in rows)

    def _weighted(key: str) -> float:
        return round(sum(r["instructions"] * r[key] for r in rows)
                     / total_instr, 3)

    agg_on = _weighted("ratio_on")
    agg_span = _weighted("ratio_on_span")
    print(f"\ninstruction-weighted: obs on {agg_on:.3f}x, "
          f"on + per-run span {agg_span:.3f}x "
          f"(over {total_instr} instructions)")

    from repro.trace.record import bench_record, write_record

    record = bench_record(
        "obs", config="GF(p) subset, Pete.run",
        cycles=sum(r["cycles"] for r in rows),
        wall_s=time.perf_counter() - t0,
        data={"kernels": rows,
              "weighted_ratio_on": agg_on,
              "weighted_ratio_on_span": agg_span,
              "trials": TRIALS, "inner": INNER})
    path = write_record(record, str(out_dir))
    print(f"obs record: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
