"""The sweep engine: retry, skip, caching, ledger records, pooling."""

import time

import pytest

from repro.harness.registry import ArtifactSpec, get_spec
from repro.sweep.cache import ResultCache
from repro.sweep.engine import SweepEngine, run_sweep


class ListLedger:
    def __init__(self):
        self.records = []

    def append(self, record):
        self.records.append(record)
        return record


def payload_for(kind, name):
    return {"text": f"{kind} {name}", "csv": "a\n1\n", "cycles": 7,
            "energy_uj": 0.5, "data": {}, "components": {},
            "wall_s": 0.01}


def _specs(*names):
    return [get_spec("table", n) for n in names]


def fake_specs(*names):
    return [ArtifactSpec("table", n, payload_for) for n in names]


# -- module-level so ProcessPoolExecutor workers can unpickle them ------


def pool_compute(kind, name):
    return payload_for(kind, name)


def pool_fail(kind, name):
    raise RuntimeError("injected pool failure")


def pool_sleep(kind, name):
    time.sleep(2.0)
    return payload_for(kind, name)


def pool_hang_a(kind, name):
    if name == "a":
        time.sleep(30.0)
    return payload_for(kind, name)


def pool_sleep_short(kind, name):
    time.sleep(0.4)
    return payload_for(kind, name)


# ---------------------------------------------------------------------------
# inline execution: retry then skip
# ---------------------------------------------------------------------------


def test_inline_retry_then_success():
    calls = []

    def flaky(kind, name):
        calls.append(name)
        if len(calls) == 1:
            raise RuntimeError("transient")
        return payload_for(kind, name)

    result = run_sweep(fake_specs("x"), ledger=ListLedger(),
                       compute=flaky, retries=1)
    (outcome,) = result.outcomes
    assert outcome.status == "computed" and outcome.attempts == 2
    assert calls == ["x", "x"]


def test_inline_persistent_failure_is_skipped_not_fatal():
    def boom(kind, name):
        raise ValueError("permanently broken")

    result = run_sweep(fake_specs("x", "y"), ledger=ListLedger(),
                       compute=lambda k, n: payload_for(k, n)
                       if n == "y" else boom(k, n), retries=2)
    by_name = {o.name: o for o in result.outcomes}
    assert by_name["x"].status == "failed"
    assert by_name["x"].attempts == 3
    assert "permanently broken" in by_name["x"].error
    assert by_name["y"].status == "computed"
    assert result.failed == [by_name["x"]]
    assert "1 failed" in result.summary()


def test_jobs_must_be_positive():
    with pytest.raises(ValueError):
        SweepEngine(jobs=0)


# ---------------------------------------------------------------------------
# pool execution
# ---------------------------------------------------------------------------


def test_pool_computes_all_tasks_in_order():
    specs = fake_specs("a", "b", "c")
    result = run_sweep(specs, jobs=2, ledger=ListLedger(),
                       compute=pool_compute)
    assert [o.name for o in result.outcomes] == ["a", "b", "c"]
    assert all(o.status == "computed" for o in result.outcomes)
    assert result.outcomes[0].payload["text"] == "table a"


def test_pool_failure_retries_then_skips():
    result = run_sweep(fake_specs("a"), jobs=2, ledger=ListLedger(),
                       compute=pool_fail, retries=1)
    (outcome,) = result.outcomes
    assert outcome.status == "failed" and outcome.attempts == 2
    assert "injected pool failure" in outcome.error


def test_pool_timeout_is_reported():
    result = run_sweep(fake_specs("a"), jobs=2, ledger=ListLedger(),
                       compute=pool_sleep, retries=0, timeout_s=0.2)
    (outcome,) = result.outcomes
    assert outcome.status == "failed"
    assert "timed out" in outcome.error


def test_hung_task_is_killed_and_does_not_starve_the_queue():
    """A hung worker is reaped at its deadline: the queued task still
    runs, and the sweep returns promptly instead of blocking on the
    hung process."""
    start = time.perf_counter()
    result = run_sweep(fake_specs("a", "b", "c"), jobs=2,
                       ledger=ListLedger(), compute=pool_hang_a,
                       retries=0, timeout_s=0.5)
    elapsed = time.perf_counter() - start
    by_name = {o.name: o for o in result.outcomes}
    assert by_name["a"].status == "failed"
    assert "timed out" in by_name["a"].error
    assert by_name["b"].status == "computed"
    assert by_name["c"].status == "computed"
    assert elapsed < 10.0


def test_queued_tasks_are_not_falsely_timed_out():
    """Deadlines are measured from each task's actual start, so tasks
    waiting behind a full pool never burn their budget in the queue."""
    result = run_sweep(fake_specs("a", "b", "c", "d"), jobs=2,
                       ledger=ListLedger(), compute=pool_sleep_short,
                       retries=0, timeout_s=1.0)
    assert all(o.status == "computed" for o in result.outcomes)


# ---------------------------------------------------------------------------
# cache interplay (real registry specs, injected compute)
# ---------------------------------------------------------------------------


def test_cold_then_warm_is_byte_identical_with_zero_computes(tmp_path):
    specs = _specs("7.3", "7.5")
    cache = ResultCache(tmp_path)
    cold = run_sweep(specs, cache=cache, ledger=ListLedger(),
                     compute=pool_compute)
    assert cold.computed == 2 and cold.hits == 0

    def forbidden(kind, name):
        raise AssertionError("warm run must not compute")

    warm = run_sweep(specs, cache=cache, ledger=ListLedger(),
                     compute=forbidden)
    assert warm.hits == 2 and warm.computed == 0
    for c, w in zip(cold.outcomes, warm.outcomes):
        assert c.payload == w.payload


def test_failed_tasks_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path)
    result = run_sweep(_specs("7.3"), cache=cache, ledger=ListLedger(),
                       compute=pool_fail, retries=0)
    assert result.outcomes[0].status == "failed"
    assert len(cache) == 0


def test_cache_entries_are_written_incrementally(tmp_path):
    """Completed payloads are persisted as they settle, so an
    interrupted sweep still warms the cache for its rerun."""
    cache = ResultCache(tmp_path)

    def interrupt_on_second(kind, name):
        if name == "7.5":
            raise KeyboardInterrupt
        return payload_for(kind, name)

    with pytest.raises(KeyboardInterrupt):
        run_sweep(_specs("7.3", "7.5"), cache=cache, ledger=ListLedger(),
                  compute=interrupt_on_second)
    assert len(cache) == 1


def test_default_compute_installs_the_calibration():
    """The default task body prices with the calibration it is handed,
    so pooled workers compute what the cache key promises even when
    they do not inherit the parent's session state."""
    import dataclasses

    from repro.energy.calibration import CALIBRATION
    from repro.sweep.engine import _compute_payload

    hot = dataclasses.replace(CALIBRATION, ram_energy_scale=4.0)
    default = _compute_payload("figure", "7.4")
    scaled = _compute_payload("figure", "7.4", calibration=hot)
    assert scaled["text"] != default["text"]
    # and the engine threads its calibration into that default body
    engine = SweepEngine(calibration=hot, ledger=ListLedger())
    assert engine.compute.keywords["calibration"] is hot


def test_calibration_partitions_the_cache(tmp_path):
    import dataclasses

    from repro.energy.calibration import CALIBRATION

    tweaked = dataclasses.replace(CALIBRATION, rom_energy_scale=1.5)
    cache = ResultCache(tmp_path)
    run_sweep(_specs("7.3"), cache=cache, ledger=ListLedger(),
              compute=pool_compute)
    other = run_sweep(_specs("7.3"), cache=cache, ledger=ListLedger(),
                      compute=pool_compute, calibration=tweaked)
    assert other.hits == 0 and other.computed == 1
    assert len(cache) == 2


# ---------------------------------------------------------------------------
# ledger records
# ---------------------------------------------------------------------------


def test_one_sweep_record_per_task_with_status():
    ledger = ListLedger()
    run_sweep(fake_specs("a", "b"), ledger=ledger, compute=pool_compute)
    assert len(ledger.records) == 2
    for record in ledger.records:
        assert record["kind"] == "sweep"
        assert record["data"]["status"] == "computed"
        assert record["data"]["attempts"] == 1
        assert record["config"] == "jobs=1"
        assert record["cycles"] == 7


def test_failed_task_record_carries_the_error():
    ledger = ListLedger()
    run_sweep(fake_specs("a"), ledger=ledger, compute=pool_fail,
              retries=0)
    (record,) = ledger.records
    assert record["data"]["status"] == "failed"
    assert "injected pool failure" in record["data"]["error"]


def test_warm_sweep_asks_git_once_per_process(tmp_path, monkeypatch):
    """Every hit still writes a record carrying ``git_sha`` and
    ``git_dirty``, but a warm sweep of N hits must not fork git per
    record: both queries are answered once per process."""
    import subprocess

    from repro.regress.ledger import NullLedger
    from repro.trace import record

    specs = _specs("7.1", "7.2", "7.3", "7.4", "7.5")
    cache = ResultCache(tmp_path)
    run_sweep(specs, cache=cache, ledger=ListLedger(),
              compute=pool_compute)

    started = []

    class CountingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            started.append(args[0] if args else kwargs.get("args"))
            super().__init__(*args, **kwargs)

    record._git.cache_clear()
    monkeypatch.setattr(subprocess, "Popen", CountingPopen)
    warm = run_sweep(specs, cache=cache, ledger=NullLedger())
    assert warm.hits == len(specs)
    assert len(started) <= 2, started
