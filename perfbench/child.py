"""One workload run, in a fresh process started by ``run.py``.

``python3 perfbench/child.py --workload NAME --seed N --seconds S
--trace 0|1 --workdir DIR --out FILE --t-spawn T [--setup-probe]``

Writes its raw measurements as JSON to ``--out``; ``run.py`` turns them
into metrics, checks the goldens and prints the result.  With
``--setup-probe`` an artifacts workload stops right before its first
task and reports only its set-up time.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import json
import os
import sys
import time

sys.dont_write_bytecode = True

#: Warm passes per artifacts workload (the reported warm time is their
#: median): in-process memos for serial, the disk cache for pooled.
WARM_PASSES = {"artifacts-serial": 2, "artifacts-pooled": 8}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CompletionClock:
    """A sweep ledger that notes when each task settles.

    The engine appends one record per task the moment its result is
    available, so the append time is the task's completion time.
    """

    def __init__(self) -> None:
        self.done: list[tuple[str, float]] = []

    def append(self, record: dict) -> None:
        self.done.append((record.get("artifact", ""), time.perf_counter()))


def traced_recorder():
    """Switch telemetry on and install the layer probes."""
    import probes
    from repro import obs

    rec = probes.Recorder()
    obs.enable()
    return rec, probes.install(rec)


def trace_section(rec, bound: dict) -> dict:
    """The traced run's per-probe totals and span summary."""
    import probes
    from repro import obs
    from spans import summarize

    collected = rec.collect()
    tel = obs.get()
    return {
        "probes": {name: {"calls": p.calls, "total_s": p.total_s,
                          "self_s": p.self_s, "misses": p.misses,
                          "items": p.items}
                   for name, p in sorted(collected.items())},
        "bound": bound,
        "per_call_overhead_s": probes.per_call_overhead_s(),
        "probe_calls": sum(p.calls for p in collected.values()),
        "spans": summarize(tel.spans) if tel is not None else {},
    }


# ---------------------------------------------------------------------------
# artifacts-serial / artifacts-pooled
# ---------------------------------------------------------------------------


def _pass(engine, specs, clock: CompletionClock, rec=None) -> dict:
    clock.done.clear()
    t0 = time.perf_counter()
    with (rec.region("perfbench.pass") if rec is not None
          else contextlib.nullcontext()):
        result = engine.run(specs)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "done_s": [t - t0 for _, t in clock.done],
        "hashes": {o.artifact: sha256(o.payload["text"])
                   for o in result.outcomes if o.ok},
        "failed": {o.artifact: o.error for o in result.outcomes
                   if not o.ok},
        "tasks": len(result.outcomes),
        "task_s": [o.wall_s for o in result.outcomes],
        "computed": result.computed,
        "hits": result.hits,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
    }


def run_artifacts(args) -> dict:
    rec = bound = None
    if args.trace:
        rec, bound = traced_recorder()
    from repro.harness.registry import registry
    from repro.sweep.cache import ResultCache
    from repro.sweep.engine import SweepEngine

    pooled = args.workload == "artifacts-pooled"
    specs = list(registry().values())
    cache = (ResultCache(os.path.join(args.workdir, "cache"))
             if pooled else None)
    clock = CompletionClock()
    engine = SweepEngine(jobs=2 if pooled else 1, cache=cache, ledger=clock)
    setup_s = time.time() - args.t_spawn
    if args.setup_probe:
        return {"setup_s": setup_s}
    out = {"setup_s": setup_s, "jobs": engine.jobs,
           "cold": _pass(engine, specs, clock, rec)}
    out["warm"] = [_pass(engine, specs, clock, rec)
                   for _ in range(WARM_PASSES[args.workload])]
    if rec is not None:
        out["trace"] = trace_section(rec, bound)
    return out


# ---------------------------------------------------------------------------
# serve-mixed
# ---------------------------------------------------------------------------


def _cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process (Linux /proc)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


async def _start(cache_dir: str):
    from repro.serve.service import ServeConfig, SigningService

    service = SigningService(ServeConfig(workers=1, cache_dir=cache_dir))
    t0 = time.perf_counter()
    await service.start()
    return service, time.perf_counter() - t0


def _phase_record(res) -> dict:
    return {
        "name": res.phase.name, "rate_rps": res.phase.rate_rps,
        "offered": res.offered, "completed": res.completed,
        "shed": res.shed, "drained": res.drained, "failed": res.failed,
        "failures": res.failures, "within_limit": res.within_limit,
        "limit_s": res.phase.limit_s, "served_rps": res.served_rps,
        "first_due": res.first_due, "last_due": res.last_due,
        "last_done": res.last_done,
        "batches": res.batches, "lanes": res.lanes,
        "post_warm_compiles": res.post_warm_compiles,
        "problems": res.problems,
        "latency_s": res.latency_s, "lag_s": res.lag_s,
        "queue_s": res.queue_s, "service_s": res.service_s,
    }


async def serve_workload(args) -> dict:
    """The segments run on one service; between two segments a second
    service is started and stopped, on an empty cache directory and on
    the first service's filled one in turn, so the start samples spread
    over the whole run instead of sharing one burst of machine noise."""
    from loaddriver import phases_for, run_phase

    rec = bound = None
    if args.trace:
        rec, bound = traced_recorder()
    out: dict = {"setup_samples_s": [], "warm_samples_s": [],
                 "profiles": [], "phases": [],
                 "frontend_cpu_s": 0.0, "worker_cpu_s": 0.0}
    cache_dir = os.path.join(args.workdir, "serve-cache")
    service, took = await _start(cache_dir)
    out["setup_samples_s"].append(took)
    out["profiles"].append(service.profiles)
    pids = [w.pid for w in service.workers]
    for i, phase in enumerate(phases_for(args.seed, args.seconds)):
        if i:
            warm = i % 2 == 0
            probe, took = await _start(
                cache_dir if warm
                else os.path.join(args.workdir, f"serve-cache-{i}"))
            out["warm_samples_s" if warm else "setup_samples_s"].append(took)
            out["profiles"].append(probe.profiles)
            await probe.stop()
        cpu0 = time.process_time()
        worker0 = sum(_cpu_s(pid) for pid in pids)
        with (rec.region("perfbench.phases") if rec is not None
              else contextlib.nullcontext()):
            result = await run_phase(service, phase)
        out["frontend_cpu_s"] += time.process_time() - cpu0
        out["worker_cpu_s"] += sum(_cpu_s(pid) for pid in pids) - worker0
        out["phases"].append(_phase_record(result))
    await service.stop()
    if rec is not None:
        out["trace"] = trace_section(rec, bound)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--setup-probe", action="store_true")
    args = parser.parse_args(argv)

    if args.workload == "serve-mixed":
        out = asyncio.run(serve_workload(args))
    else:
        out = run_artifacts(args)
    if not args.setup_probe:
        import numpy

        out["versions"] = {"python": sys.version.split()[0],
                           "numpy": numpy.__version__}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
