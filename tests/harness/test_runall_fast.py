"""``runall --stats-json`` stats."""

import json

from repro.harness.runall import main

#: The keys ``--stats-json`` writes, cold or warm, serial or pooled.
STATS_KEYS = {
    "artifacts", "computed", "cached", "failed", "jobs", "cache_hits",
    "cache_misses", "retries", "reaped", "units", "units_inline",
}

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
