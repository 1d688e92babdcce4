"""Pooled sweeps with the default task body: units once, each reader
rendered inline as soon as its units land."""

import functools
import os
import time

import pytest

from repro import obs
from repro.harness.registry import get_spec
from repro.model import units
from repro.sweep.cache import ResultCache
from repro.sweep.engine import SweepEngine, SweepResult
from repro.sweep.keys import artifact_key

from tests.sweep.test_engine import ListLedger

#: two readers (4 curves + 8 caches between them) and one unit-free table
SELECTION = (("figure", "7.9"), ("figure", "7.12"), ("table", "7.3"))
#: figure 7.11 reads P-192, P-256 and P-384; figure 7.9 reads P-192,
#: B-163, P-256 and B-283; table 7.3 reads no unit
STREAM = (("figure", "7.11"), ("figure", "7.9"), ("table", "7.3"))
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


def _wait_for(path, deadline_s=30.0):
    deadline = time.monotonic() + deadline_s
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path} never appeared")
        time.sleep(0.01)


def gated_compute(gates, name):
    """Fill unit ``name`` once the file ``gates`` names for it exists;
    a gate of ``None`` fails the unit at once."""
    if name in gates:
        if gates[name] is None:
            raise RuntimeError("injected unit failure")
        _wait_for(gates[name])
    return _REAL_COMPUTE(name)


class MarkerLedger(ListLedger):
    """Also leaves one file per record, which a pool worker can see."""

    def __init__(self, directory):
        super().__init__()
        self.directory = directory

    def marker(self, artifact):
        return str(self.directory / f"{artifact}.settled")

    def append(self, record):
        open(self.marker(record["artifact"]), "w").close()
        return super().append(record)


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


def test_a_reader_renders_while_other_units_run(tmp_path, monkeypatch):
    """B-163 (read by figure 7.9 only) waits for figure 7.11's cache
    entry, so 7.11 must render, and write its entry, while B-163 is
    still running."""
    specs = _specs(*STREAM)
    cache = ResultCache(tmp_path)
    gates = {"curve:B-163": cache.path_for(artifact_key(specs[0]))}
    monkeypatch.setattr(units, "compute",
                        functools.partial(gated_compute, gates))
    ledger = ListLedger()
    result = SweepEngine(jobs=2, cache=cache, ledger=ledger, retries=0,
                         timeout_s=20.0, mp_context="fork").run(specs)
    assert [o.status for o in result.outcomes] == ["computed"] * 3
    assert result.units == 5 and result.units_inline == 0
    order = [r["artifact"] for r in ledger.records]
    assert order.index("figure_7.11") < order.index("figure_7.9")
    assert len(cache) == 3


def test_a_failed_units_readers_fail_before_a_slower_unit_lands(
        tmp_path, monkeypatch):
    """P-384 (read by figure 7.11 only) fails at once; B-283 (read by
    figure 7.9 only) waits for 7.11's ledger record, so 7.11 must fail
    while B-283 is still running."""
    ledger = MarkerLedger(tmp_path)
    gates = {"curve:P-384": None,
             "curve:B-283": ledger.marker("figure_7.11")}
    monkeypatch.setattr(units, "compute",
                        functools.partial(gated_compute, gates))
    result = SweepEngine(jobs=2, ledger=ledger, retries=0, timeout_s=20.0,
                         mp_context="fork").run(_specs(*STREAM))
    by_name = {o.name: o for o in result.outcomes}
    assert by_name["7.11"].status == "failed"
    assert by_name["7.11"].error == (
        "unit curve:P-384: RuntimeError: injected unit failure")
    assert by_name["7.9"].status == by_name["7.3"].status == "computed"
    assert result.units == 4 and result.units_inline == 0
    order = [r["artifact"] for r in ledger.records]
    assert order.index("figure_7.11") < order.index("figure_7.9")


def test_unit_tasks_start_in_first_declared_order_after_unit_free_ones():
    obs.enable()
    try:
        SweepEngine(jobs=2, ledger=ListLedger(),
                    mp_context="fork").run(_specs(*STREAM))
    finally:
        snapshot = obs.disable()
    # pool attempts carry an ``attempt`` label; rendered readers do not
    started = sorted((s for s in snapshot["spans"]
                      if s["name"] == "sweep.task"
                      and "attempt" in s["labels"]),
                     key=lambda s: s["start_s"])
    assert [s["labels"]["task"] for s in started] == [
        "7.3", "curve:P-192", "curve:P-256", "curve:P-384", "curve:B-163",
        "curve:B-283"]


def test_summary_flags_unit_reads_in_the_parent():
    assert "untimed" not in SweepResult([], jobs=2, units=3).summary()
    flagged = SweepResult([], jobs=2, units=3, units_inline=1).summary()
    assert "units 3 pooled / 1 inline (undeclared" in flagged
