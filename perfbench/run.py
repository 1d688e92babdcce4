"""The repository's benchmark: one workload run, timed end to end or
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see ``workloads.json``):

* ``artifacts-serial`` -- the full artifact catalog inline, no cache;
* ``artifacts-pooled`` -- the catalog on ``SweepEngine(jobs=2)`` over an
  empty cache directory, then warm passes that only read it;
* ``serve-mixed`` -- ``SigningService`` with one worker under the default
  request mix, open loop, at 100, 300 and 1000 req/s.

The workload runs in a fresh child process (``child.py``); set-up
samples of the artifacts workloads come from extra children that stop
right before their first task.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer ones from the
layer probes (``probes.py``).  Every artifact text and the service's
plan profiles are checked against ``golden.json``; a mismatch, a serve
run whose books disagree with the service or that compiled after
warm-up, or any failed artifact or request makes the run fail (exit 1).
Each run also writes a record with its raw samples under
``.perfbench/records/`` (summarize them with ``report.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402
from probes import NAMED_PAYLOADS  # noqa: E402

WORKLOADS = ("artifacts-serial", "artifacts-pooled", "serve-mixed")
#: Extra set-up-only children per artifacts run (plus the run's own).
SETUP_PROBES = 2
#: Whole-run budget; the contract allows 180 s.
DEADLINE_S = 175.0
GOLDEN = os.path.join(HERE, "golden.json")
WORK = os.path.join(ROOT, ".perfbench")

#: Probes reported as ``<name>.calls`` and ``<name>.s``.
TIMED_PROBES = (
    "fields.binary_mul", "fields.binary_sqr", "fields.prime_mul",
    "fields.prime_sqr", "accel.digit_serial_mul", "accel.hardwired_square",
    "accel.billie_run", "model.activity", "model.cache_study",
    "kernels.measure", "pete.lanes.run", "sweep.key", "sweep.cache.get",
    "sweep.cache.put")
#: Probes whose lru-cache misses are reported.
MISS_PROBES = ("model.cache_study", "model.opcounts", "model.software_costs")
#: Layers whose summed self time is reported as ``<layer>.self_s``.
LAYERS = ("fields", "accel", "model", "kernels", "pete", "harness", "sweep",
          "serve")
PHASES = ("light", "heavy", "overload")


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------


#: CPU time of ``SpeedProbe.spin`` on the reference host; times are
#: reported as if the run had that speed throughout.
REFERENCE_SPIN_S = 0.0015
#: How the end-to-end metrics measured over the whole run scale with
#: host speed: time (1) or rate (-1).  Set-up and warm times last a few
#: seconds at most, too short for the run's median speed to describe them,
#: and serve's wall time follows its arrival schedule; they stay raw.
HOST_POWER = {"wall_s": 1, "p50_ms": 1, "tail_ms": 1, "rate_per_s": -1}


class SpeedProbe(threading.Thread):
    """Samples how fast the host runs Python while the workload runs:
    the CPU time of a fixed loop, every ``period_s``, in this otherwise
    idle process (about 1% of one core).

    On a shared host the same loop can take 60% longer from one second
    to the next, and every CPU-bound time moves with it; scaling by the
    run's median sample takes that out of the comparison between runs.
    """

    def __init__(self, period_s: float = 0.25) -> None:
        super().__init__(daemon=True)
        self.period_s = period_s
        self.samples: list[float] = []
        self.done = threading.Event()

    @staticmethod
    def spin() -> float:
        t0 = time.thread_time()
        total = 0
        for i in range(20000):
            total += i * i
        return time.thread_time() - t0

    def run(self) -> None:
        while not self.done.wait(self.period_s):
            self.samples.append(self.spin())

    def factor(self) -> float:
        """Reference speed over this run's speed (1 with no samples)."""
        if not self.samples:
            return 1.0
        return REFERENCE_SPIN_S / stats.percentile(self.samples, 50)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """The environment of every child: the checkout's sources, no
    bytecode written, and no ledger, cache or fast-path setting leaking
    in from the caller."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "BENCH_"))}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _reap_group(pgid: int) -> None:
    """Kill whatever is left in a child's process group and wait until
    it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_child(args, workdir: str, deadline: float,
              setup_probe: bool = False) -> dict:
    out = os.path.join(workdir, f"child-{time.monotonic_ns()}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--out", out,
           "--t-spawn", repr(time.time())]
    if setup_probe:
        cmd.append("--setup-probe")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _reap_group(proc.pid)
        proc.wait()
        raise SystemExit(f"perfbench: {args.workload} ran past its "
                         f"{DEADLINE_S:g} s budget")
    finally:
        _reap_group(proc.pid)
    if code != 0:
        raise SystemExit(f"perfbench: {args.workload} child exited {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------


def check_goldens(workload: str, raw: dict, golden: dict) -> list[str]:
    """Every way the run's outputs differ from the goldens."""
    problems = []
    if workload == "serve-mixed":
        want = golden["serve_profiles"]
        for i, profiles in enumerate(raw["profiles"]):
            if profiles != want:
                problems.append(f"service start {i}: plan profiles differ "
                                f"from golden")
        return problems
    want = golden["artifacts"]
    for label, one in [("cold", raw["cold"])] + [
            (f"warm {i}", p) for i, p in enumerate(raw["warm"])]:
        for artifact, digest in sorted(one["hashes"].items()):
            if want.get(artifact) != digest:
                problems.append(f"{label} pass: {artifact} text differs "
                                f"from golden")
        missing = set(want) - set(one["hashes"]) - set(one["failed"])
        for artifact in sorted(missing):
            problems.append(f"{label} pass: {artifact} missing")
    return problems


def serve_problems(raw: dict) -> list[str]:
    """Invalid serve runs: books that disagree, compiles after warm-up."""
    return [p for phase in raw["phases"] for p in phase["problems"]]


def failures(workload: str, raw: dict) -> tuple[int, int]:
    """``(attempted, failed)``: artifact tasks over every pass, or
    offered requests with failed, drained and non-overload sheds."""
    if workload == "serve-mixed":
        return (sum(p["offered"] for p in raw["phases"]),
                sum(p["failures"] for p in raw["phases"]))
    passes = [raw["cold"]] + raw["warm"]
    return (sum(p["tasks"] for p in passes),
            sum(len(p["failed"]) for p in passes))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _segments(raw: dict) -> dict[str, list[dict]]:
    """Serve segment records grouped by phase name."""
    out: dict[str, list[dict]] = {}
    for segment in raw["phases"]:
        out.setdefault(segment["name"], []).append(segment)
    return out


def _ms(values) -> list[float]:
    return [v * 1e3 for v in values]


def end_to_end(workload: str, raw: dict, setup: list[float],
               rss_mb: float, ok_frac: float) -> dict[str, tuple]:
    """``(value, samples)`` of every end-to-end metric."""
    def median(samples):
        return stats.percentile(samples, 50), samples

    if workload == "serve-mixed":
        segments = _segments(raw)
        light = _ms(v for s in segments["light"] for v in s["latency_s"])
        return {
            "setup_s": median(raw["setup_samples_s"]),
            "wall_s": median([sum(s["last_done"] - s["first_due"]
                                  for s in raw["phases"])]),
            "warm_wall_s": median(raw["warm_samples_s"]),
            "p50_ms": median(light),
            "tail_ms": (stats.tail(light)[0], light),
            "rate_per_s": median([s["served_rps"]
                                  for s in segments["overload"]]),
            "peak_rss_mb": median([rss_mb]),
            "ok_frac": median([ok_frac]),
        }
    cold = raw["cold"]
    done_ms = _ms(cold["done_s"])
    return {
        "setup_s": median(setup),
        "wall_s": median([cold["wall_s"]]),
        "warm_wall_s": median([p["wall_s"] for p in raw["warm"]]),
        "p50_ms": median(done_ms),
        "tail_ms": (stats.tail(done_ms)[0], done_ms),
        "rate_per_s": median([len(cold["hashes"]) / cold["wall_s"]]),
        "peak_rss_mb": median([rss_mb]),
        "ok_frac": median([ok_frac]),
    }


def _phase_layer(segments: list[dict]) -> dict[str, float]:
    """Per-phase serve metrics over the phase's segments (zeros when
    the workload has no such phase)."""
    if not segments:
        return dict.fromkeys(
            ("p50_ms", "p99_ms", "within_100ms_frac", "queue_ms.p50",
             "queue_ms.p99", "service_ms.p50", "service_ms.p99",
             "batch_occupancy", "shed_frac", "gen_lag_ms.p99"), 0.0)

    def pooled(key):
        return _ms(v for s in segments for v in s[key]) or [0.0]

    def total(key):
        return sum(s[key] for s in segments)

    return {
        "p50_ms": stats.percentile(pooled("latency_s"), 50),
        "p99_ms": stats.tail(pooled("latency_s"))[0],
        "within_100ms_frac": total("within_limit") / total("offered"),
        "queue_ms.p50": stats.percentile(pooled("queue_s"), 50),
        "queue_ms.p99": stats.tail(pooled("queue_s"))[0],
        "service_ms.p50": stats.percentile(pooled("service_s"), 50),
        "service_ms.p99": stats.tail(pooled("service_s"))[0],
        "batch_occupancy": (total("lanes") / total("batches")
                            if total("batches") else 0.0),
        "shed_frac": total("shed") / total("offered"),
        "gen_lag_ms.p99": stats.tail(pooled("lag_s"))[0],
    }


def per_layer(raw: dict) -> dict[str, float]:
    """Every per-layer metric from a traced run."""
    trace = raw["trace"]
    probes = trace["probes"]

    def get(name, field):
        return probes.get(name, {}).get(field, 0)

    out: dict[str, float] = {}
    for name in TIMED_PROBES:
        out[f"{name}.calls"] = get(name, "calls")
        out[f"{name}.s"] = get(name, "total_s")
    for name in MISS_PROBES:
        out[f"{name}.misses"] = get(name, "misses")
    for name in ("model.opcounts", "model.software_costs"):
        out[f"{name}.s"] = get(name, "total_s")
    sim_s = get("kernels.simulate", "total_s")
    out["kernels.sim_instructions"] = get("kernels.simulate", "items")
    out["kernels.minstr_per_s"] = (
        out["kernels.sim_instructions"] / sim_s / 1e6 if sim_s else 0.0)

    payload_s = {name[len("harness.payload."):]: p["total_s"]
                 for name, p in probes.items()
                 if name.startswith("harness.payload.")}
    for artifact in NAMED_PAYLOADS:
        out[f"harness.payload.{artifact}.s"] = payload_s.pop(artifact, 0.0)
    out["harness.payload.rest.s"] = sum(payload_s.values())

    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            p["self_s"] for name, p in probes.items()
            if name.split(".", 1)[0] == layer)
    unattributed = sum(p["self_s"] for name, p in probes.items()
                       if name.startswith("perfbench."))
    busy = unattributed + sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace.unattributed_s"] = unattributed
    out["trace.attributed_frac"] = 1.0 - unattributed / busy if busy else 0.0
    out["trace.overhead_frac"] = (trace["per_call_overhead_s"]
                                  * trace["probe_calls"] / busy
                                  if busy else 0.0)

    segments = _segments(raw) if "phases" in raw else {}
    for name in PHASES:
        for key, value in _phase_layer(segments.get(name, [])).items():
            out[f"serve.{name}.{key}"] = value
    out["serve.frontend_cpu_s"] = raw.get("frontend_cpu_s", 0.0)
    out["serve.worker_cpu_s"] = raw.get("worker_cpu_s", 0.0)
    out["serve.post_warm_compiles"] = sum(
        s["post_warm_compiles"] for s in raw.get("phases", []))

    passes = [raw["cold"]] + raw["warm"] if "cold" in raw else []
    lookups = sum(p["cache_hits"] + p["cache_misses"] for p in passes)
    out["sweep.cache.hit_ratio"] = (
        sum(p["cache_hits"] for p in passes) / lookups if lookups else 0.0)
    out["sweep.task.s"] = sum(sum(p["task_s"]) for p in passes)
    out["sweep.pool_busy_frac"] = (
        sum(raw["cold"]["task_s"]) / (raw["jobs"] * raw["cold"]["wall_s"])
        if passes else 0.0)
    return out


def _metric_table(spec: list[dict], values: dict) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` in BENCHMARK.json order; raises on
    a metric the run could not compute."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise SystemExit(f"perfbench: no value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def _git(*argv: str) -> str | None:
    try:
        done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def write_record(args, record: dict) -> str:
    directory = os.path.join(WORK, "records")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"{args.workload}-s{args.seed}-t{args.trace}-"
                   f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return path


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="store this run's outputs as the goldens "
                             "instead of checking them")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no src/repro next to the benchmark; run it from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    def probe_setup() -> float:
        return run_child(args, workdir, deadline,
                         setup_probe=True)["setup_s"]

    # half the set-up probes before the run and half after, so their
    # samples do not all share one burst of machine noise
    probes = (SETUP_PROBES if args.workload != "serve-mixed"
              and not args.trace else 0)
    workdir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    speed = SpeedProbe()
    speed.start()
    try:
        setup = [probe_setup() for _ in range(probes // 2)]
        raw = run_child(args, workdir, deadline)
        setup += [probe_setup() for _ in range(probes - probes // 2)]
    finally:
        speed.done.set()
        speed.join()
        shutil.rmtree(workdir, ignore_errors=True)
    if "setup_s" in raw:
        setup.append(raw["setup_s"])
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    if args.write_golden:
        if args.workload == "serve-mixed":
            golden["serve_profiles"] = raw["profiles"][0]
        else:
            golden["artifacts"] = raw["cold"]["hashes"]
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
    problems = check_goldens(args.workload, raw, golden)
    if args.workload == "serve-mixed":
        problems += serve_problems(raw)
    attempted, failed = failures(args.workload, raw)

    described: dict[str, dict] = {}
    if args.trace:
        metrics = _metric_table(bench["per_layer"], per_layer(raw))
    else:
        e2e = end_to_end(args.workload, raw, setup, rss_mb,
                         1.0 - failed / attempted)
        factor = speed.factor()
        scaled = {}
        for name, (value, samples) in e2e.items():
            power = HOST_POWER.get(name, 0)
            if args.workload == "serve-mixed" and name == "wall_s":
                power = 0
            scaled[name] = value * factor ** power
            described[name] = {"raw": value, "host_power": power,
                               "raw_samples": stats.describe(samples)}
        metrics = _metric_table(bench["end_to_end"], scaled)

    sha = _git("rev-parse", "HEAD")
    record = {
        "schema": "perfbench.v1",
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "git": {"sha": sha.strip() if sha else "unknown",
                "dirty": None if sha is None else
                bool((_git("status", "--porcelain") or "").strip())},
        "host": {"nproc": os.cpu_count(), **raw.get("versions", {}),
                 "speed_probe_s": speed.samples,
                 "speed_factor": speed.factor()},
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {**m, **described.get(name, {})}
                    for name, m in metrics.items()},
        "raw": raw,
    }
    path = write_record(args, record)

    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        raw_value = described.get(name, {}).get("raw")
        print(f"{name} = {m['value']:.6g} {m['unit']}"
              + (f" (raw {raw_value:.6g})" if raw_value is not None
                 else ""))
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
