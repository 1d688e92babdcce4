"""Pooled sweeps with the default task body: units once, readers inline."""

import time

import pytest

from repro import obs
from repro.harness.registry import get_spec
from repro.model import units
from repro.sweep.cache import ResultCache
from repro.sweep.engine import SweepEngine, SweepResult

from tests.sweep.test_engine import ListLedger

#: two readers (4 curves + 8 caches between them) and one unit-free table
SELECTION = (("figure", "7.9"), ("figure", "7.12"), ("table", "7.3"))
_REAL_COMPUTE = units.compute


@pytest.fixture(autouse=True)
def _cold_units():
    # earlier tests warm the memos; the parent must start without units
    units.clear()
    yield


def _stable(payload):
    return {k: v for k, v in payload.items() if k != "wall_s"}


def _specs(*keys):
    return [get_spec(kind, name) for kind, name in keys]


def failing_compute(name):
    if name == "curve:P-192":
        raise RuntimeError("injected unit failure")
    return _REAL_COMPUTE(name)


def hanging_compute(name):
    if name == "curve:P-192":
        time.sleep(30.0)
    return _REAL_COMPUTE(name)


def test_pooled_units_once_then_readers_inline(tmp_path):
    specs = _specs(*SELECTION)
    inline = {spec.key: _stable(spec.payload()) for spec in specs}
    units.clear()
    ledger = ListLedger()
    cache = ResultCache(tmp_path)
    obs.enable()
    try:
        result = SweepEngine(jobs=2, cache=cache, ledger=ledger,
                             mp_context="fork").run(specs)
    finally:
        snapshot = obs.disable()
    assert [o.status for o in result.outcomes] == ["computed"] * 3
    for spec, outcome in zip(specs, result.outcomes):
        assert _stable(outcome.payload) == inline[spec.key]
    assert result.units == 12 and result.units_inline == 0
    assert "units 12 pooled / 0 inline" in result.summary()
    # units leave no ledger record, cache entry or task count behind
    assert sorted(r["artifact"] for r in ledger.records) == sorted(
        spec.artifact_id for spec in specs)
    assert len(cache) == 3
    unit_spans = [s for s in snapshot["spans"]
                  if s["name"] == "sweep.task"
                  and s["labels"].get("kind") == "unit"]
    assert len(unit_spans) == 12
    counted = sum(m["value"] for m in snapshot["metrics"]["metrics"]
                  if m["name"] == "sweep_tasks_total")
    assert counted == 3

    again = SweepEngine(jobs=2, ledger=ListLedger(),
                        mp_context="fork").run(specs)
    assert again.units == 0 and again.units_inline == 0
    assert [_stable(o.payload) for o in again.outcomes] == [
        inline[spec.key] for spec in specs]


def test_pooled_units_under_spawn_equal_inline():
    (spec,) = _specs(("figure", "7.11"))
    expected = _stable(spec.payload())
    units.clear()
    result = SweepEngine(jobs=2, ledger=ListLedger(),
                         mp_context="spawn").run([spec])
    (outcome,) = result.outcomes
    assert outcome.status == "computed"
    assert _stable(outcome.payload) == expected
    assert result.units == 3 and result.units_inline == 0


def test_a_failed_unit_fails_its_readers_only(monkeypatch):
    monkeypatch.setattr(units, "compute", failing_compute)
    ledger = ListLedger()
    result = SweepEngine(jobs=2, ledger=ledger, retries=1,
                         mp_context="fork").run(_specs(*SELECTION))
    by_name = {o.name: o for o in result.outcomes}
    for name in ("7.9", "7.12"):
        assert by_name[name].status == "failed"
        assert by_name[name].error == (
            "unit curve:P-192: RuntimeError: injected unit failure")
    assert by_name["7.3"].status == "computed"
    assert result.units == 11 and result.units_inline == 0
    assert len(ledger.records) == 3


def test_a_hung_unit_is_reaped_and_fails_its_readers(monkeypatch):
    monkeypatch.setattr(units, "compute", hanging_compute)
    start = time.perf_counter()
    result = SweepEngine(jobs=2, ledger=ListLedger(), timeout_s=0.5,
                         mp_context="fork").run(_specs(*SELECTION))
    elapsed = time.perf_counter() - start
    by_name = {o.name: o for o in result.outcomes}
    for name in ("7.9", "7.12"):
        assert by_name[name].status == "failed"
        assert by_name[name].error.startswith("unit curve:P-192: timed out")
    assert by_name["7.3"].status == "computed"
    assert elapsed < 15.0


def test_summary_flags_unit_reads_in_the_parent():
    assert "untimed" not in SweepResult([], jobs=2, units=3).summary()
    flagged = SweepResult([], jobs=2, units=3, units_inline=1).summary()
    assert "units 3 pooled / 1 inline (undeclared" in flagged
