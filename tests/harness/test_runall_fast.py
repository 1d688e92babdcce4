"""Block-threaded vs reference byte-identity and --stats-json stats."""

import json
import os
import subprocess
import sys
import textwrap

from repro.harness.runall import main
from repro.obs.export import parse_openmetrics

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

#: The keys ``--stats-json`` writes, cold or warm, serial or pooled.
STATS_KEYS = {
    "artifacts", "computed", "cached", "failed", "jobs", "cache_hits",
    "cache_misses", "retries", "reaped", "fastpath_blocks_discovered",
    "fastpath_blocks_compiled", "fastpath_code_cache_hits",
    "fastpath_deopt_runs",
}

#: One ``runall --only 7.5`` pass in a fresh process (so its kernel
#: memos start empty and every measurement simulates), counting kernel
#: launches; argv[1] == "reference" runs each kernel on the reference
#: interpreter alone.
_PASS = textwrap.dedent("""
    import sys
    from repro.harness.runall import main
    from repro.kernels.runner import KernelRunner
    from repro.pete.diffexec import run_reference

    block_threaded = KernelRunner._launch
    launches = []

    def launch(self, cpu, entry):
        launches.append(entry)
        if sys.argv[1] == "reference":
            return run_reference(cpu, entry)
        return block_threaded(self, cpu, entry)

    KernelRunner._launch = launch
    status = main(["--only", "7.5", "--out", sys.argv[2], "--csv",
                   "--no-ledger"])
    print(f"launches={len(launches)}", file=sys.stderr)
    sys.exit(status)
""")


def _read_dir(d):
    return {p.name: p.read_bytes() for p in d.iterdir()}


def _env():
    """The environment of a fresh ``repro`` process on this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p)
    return env


def test_stats_json_cold_then_warm(tmp_path, capsys):
    cache = tmp_path / "cache"
    stats_path = tmp_path / "stats.json"

    assert main(["--only", "7.5", "--cache-dir", str(cache),
                 "--stats-json", str(stats_path)]) == 0
    cold = json.loads(stats_path.read_text())
    assert cold["computed"] == cold["artifacts"] > 0
    assert cold["cached"] == 0 and cold["failed"] == 0

    assert main(["--only", "7.5", "--cache-dir", str(cache),
                 "--stats-json", str(stats_path)]) == 0
    warm = json.loads(stats_path.read_text())
    assert set(cold) == set(warm) == STATS_KEYS
    assert warm["computed"] == 0
    assert warm["cached"] == warm["artifacts"] == cold["artifacts"]
    capsys.readouterr()


def test_block_threaded_artifacts_match_reference_bytes(tmp_path):
    passes = {
        mode: subprocess.Popen(
            [sys.executable, "-c", _PASS, mode, str(tmp_path / mode)],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        for mode in ("block", "reference")
    }
    results = {mode: proc.communicate() + (proc.returncode,)
               for mode, proc in passes.items()}
    for mode, (_, err, status) in results.items():
        assert status == 0, f"{mode} pass failed:\n{err}"
        launches = int(err.rsplit("launches=", 1)[1].split()[0])
        assert launches > 0, f"the {mode} pass simulated nothing"
    assert results["block"][0] == results["reference"][0]
    assert _read_dir(tmp_path / "block") == \
        _read_dir(tmp_path / "reference")


def test_pooled_counts_reach_stats_and_openmetrics_once(tmp_path):
    """In a pooled ``--obs`` run each worker's fast-path counts travel
    twice -- shipped beside its result and inside its telemetry -- yet
    must land once in each output: the stats equal the OpenMetrics
    samples.  A fresh process keeps the kernel memos cold."""
    stats_path = tmp_path / "stats.json"
    subprocess.run(
        [sys.executable, "-m", "repro.harness.runall", "--only", "7.5",
         "--jobs", "2", "--obs", "--obs-out", str(tmp_path / "obs"),
         "--stats-json", str(stats_path), "--no-ledger"],
        env=_env(), check=True, capture_output=True)
    stats = json.loads(stats_path.read_text())
    assert set(stats) == STATS_KEYS
    assert stats["fastpath_blocks_compiled"] > 0
    families = parse_openmetrics(
        (tmp_path / "obs" / "telemetry.om").read_text())
    for name in STATS_KEYS:
        if name.startswith("fastpath_"):
            exported = sum(s["value"] for s in families.get(name, ())
                           if s["sample"] == f"{name}_total")
            assert exported == stats[name], name
