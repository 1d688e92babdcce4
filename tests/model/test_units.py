"""Seedable unit memos, unit planning and producer declarations."""

import dataclasses
import functools
import pickle

import pytest

from repro.harness.registry import ArtifactSpec, get_spec, registry
from repro.model import icache_model, opcount, units


@pytest.fixture(autouse=True)
def _cold_units():
    # earlier tests warm the memos; each test here starts from empty ones
    units.clear()
    yield
    units.clear()


def test_seeded_value_returns_without_running_the_body():
    sentinel = object()
    # P-999 is no curve: running the body would raise
    units.seed([(units.OPCOUNTS, ("P-999",), sentinel)])
    assert opcount.ecdsa_opcounts("P-999") is sentinel
    info = opcount.ecdsa_opcounts.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 0, 1)


def test_cache_info_and_clear_behave_like_lru_cache():
    study = icache_model.cache_study
    assert tuple(study.cache_info()) == (0, 0, None, 0)
    first = study(1024, False)
    assert study(1024, False) is first
    assert study(1024, False, point_ops=150) == first  # its own key
    assert tuple(study.cache_info()) == (1, 2, None, 2)
    study.cache_clear()
    assert tuple(study.cache_info()) == (0, 0, None, 0)
    assert study(1024, False) == first


def test_seeding_reaches_a_function_rebound_to_a_wrapper(monkeypatch):
    """A tracer rebinds the memoized function to a ``functools.wraps``
    wrapper at every module that holds it; seeding goes through the
    memo table, so the wrapper still sees the seeded value."""
    from repro.model import system

    orig = opcount.ecdsa_opcounts
    calls = []

    @functools.wraps(orig)
    def traced(*args):
        calls.append(args)
        return orig(*args)

    for module in (opcount, system):
        monkeypatch.setattr(module, "ecdsa_opcounts", traced)
    sentinel = object()
    units.seed([(units.OPCOUNTS, ("P-999",), sentinel)])
    assert system.ecdsa_opcounts("P-999") is sentinel
    assert calls == [("P-999",)]
    assert traced.cache_info().hits == 1


def test_a_computed_unit_pickles_and_seeds_another_process_memos():
    entries = units.compute("curve:B-163")
    assert {memo for memo, _, _ in entries} == {
        units.OPCOUNTS, units.SOFTWARE_COSTS, units.BILLIE_RUN}
    # two ISA settings per curve, both Billie primitives
    assert len(entries) == 5
    shipped = pickle.loads(pickle.dumps(entries))
    units.clear()
    assert not units.held("curve:B-163")
    units.seed(shipped)
    assert units.held("curve:B-163")
    assert units.plan(["curve:B-163", "icache:4096:0"]) == ["icache:4096:0"]
    from repro.model.system import SystemModel

    before = units.misses()
    SystemModel().report("B-163", "billie")
    SystemModel().report("B-163", "binary_isa")
    assert units.misses() == before


def test_plan_is_deterministic_and_skips_held_units():
    """Each unit once, in the order its names first come (a pooled
    sweep queues the units in the order the specs first declare them)."""
    names = ["icache:1024:1", "curve:P-192", "curve:B-571",
             "icache:8192:0", "curve:P-192"]
    assert units.plan(names) == units.plan(iter(names)) == [
        "icache:1024:1", "curve:P-192", "curve:B-571", "icache:8192:0"]
    assert units.plan(reversed(names)) == [
        "curve:P-192", "icache:8192:0", "curve:B-571", "icache:1024:1"]
    units.seed([(units.CACHE_STUDY, (1024, True), object())])
    assert units.plan(names) == [
        "curve:P-192", "curve:B-571", "icache:8192:0"]


def test_the_catalog_plans_its_units_in_first_declared_order():
    names = [name for spec in registry().values() for name in spec.units]
    assert units.plan(names) == (
        [f"curve:P-{b}" for b in (192, 224, 256, 384, 521)]
        + [f"curve:B-{b}" for b in (163, 233, 283, 409, 571)]
        + ["icache:4096:0", "icache:1024:0", "icache:1024:1",
           "icache:2048:0", "icache:2048:1", "icache:4096:1",
           "icache:8192:0", "icache:8192:1"])


def test_every_curve_unit_prices_two_isa_settings():
    settings = {}
    for spec in registry().values():
        for name in spec.units:
            if name.startswith("curve:"):
                settings[name] = [key for memo, key, _ in units._fills(name)
                                  if memo == units.SOFTWARE_COSTS]
    assert len(settings) == 10
    assert all(len(keys) == 2 for keys in settings.values())


def test_declarations_cover_eighteen_artifacts_and_units():
    readers = [spec for spec in registry().values() if spec.units]
    assert len(readers) == 18
    assert len({name for spec in readers for name in spec.units}) == 18
    assert get_spec("table", "7.3").units == ()
    assert get_spec("figure", "7.14").units == ()
    assert ArtifactSpec("table", "x", lambda: []).units == ()
    # the declaration leaves the producer's identity (and key) alone
    fig = get_spec("figure", "7.12").producer
    assert fig.__qualname__ == "fig7_12"
    assert fig.__module__ == "repro.harness.figures"
    assert get_spec("figure", "7.12").units == (
        "curve:P-192", "icache:1024:0", "icache:1024:1", "icache:2048:0",
        "icache:2048:1", "icache:4096:0", "icache:4096:1", "icache:8192:0",
        "icache:8192:1")


def test_a_units_fills_generate_one_key_pair(monkeypatch):
    """Op counts and both Billie runs share one key pair (d*G is one
    software scalar multiplication, the costliest part of a fill)."""
    import sys

    from repro.ecdsa.core import generate_keypair

    made = []

    def counting(curve, seed=b"repro"):
        made.append((curve.name, seed))
        return generate_keypair(curve, seed=seed)

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro")
                and getattr(module, "generate_keypair", None)
                is generate_keypair):
            monkeypatch.setattr(module, "generate_keypair", counting)
    opcount.keypair.cache_clear()
    units.compute("curve:B-163")
    assert made == [("B-163", b"opcount")]


def test_a_wrong_billie_sign_result_raises(monkeypatch):
    """Billie's sign run must land on the key pair's d*G; the check
    raises (no ``assert``) and the memo keeps nothing."""
    from repro.ec.point import AffinePoint
    from repro.kernels.catalog import KernelMismatch
    from repro.model import billie_driver, system

    real = billie_driver.run_sliding_window

    def corrupted(*args, **kwargs):
        run = real(*args, **kwargs)
        return dataclasses.replace(
            run, result=AffinePoint(run.result.x ^ 1, run.result.y))

    monkeypatch.setattr(billie_driver, "run_sliding_window", corrupted)
    with pytest.raises(KernelMismatch, match="Billie sign on B-163"):
        system._billie_primitive_run("B-163", "sign")
    assert not units.MEMOS[units.BILLIE_RUN].values
