"""The public facade: artifacts, sweeps, sessions."""

import dataclasses

import pytest

from repro.api import UnknownArtifactError, compute_artifact, \
    open_session, sweep
from repro.energy.calibration import CALIBRATION


def _stable(payload):
    """Payload minus the run-to-run wall-clock field."""
    return {k: v for k, v in payload.items() if k != "wall_s"}


def test_compute_artifact_accepts_only_style_tokens():
    a = compute_artifact("table_7.5")
    b = compute_artifact("7.5", kind="table")
    assert a["text"] == b["text"]
    assert a["text"].startswith("Table 7.5")


def test_ambiguous_and_unknown_names_raise():
    with pytest.raises(UnknownArtifactError, match="ambiguous"):
        compute_artifact("7.5")          # both a table and a figure
    with pytest.raises(UnknownArtifactError):
        compute_artifact("99.9")


def test_sweep_facade_runs_a_selection(tmp_path):
    result = sweep(only=["table_7.3"], cache_dir=tmp_path)
    assert len(result.outcomes) == 1
    assert result.outcomes[0].ok
    warm = sweep(only=["table_7.3"], cache_dir=tmp_path)
    assert warm.hits == 1


def test_session_prices_artifacts_with_its_calibration():
    hot = dataclasses.replace(CALIBRATION, ram_energy_scale=4.0)
    default = compute_artifact("figure_7.4")
    with open_session(calibration=hot) as session:
        scaled = session.compute_artifact("figure_7.4")
    assert scaled["text"] != default["text"]
    # leaving the session restores the default pricing
    assert compute_artifact("figure_7.4")["text"] == default["text"]


def test_session_is_reentrant_and_exposes_identity():
    with open_session() as session:
        with session:
            assert session.fingerprint == CALIBRATION.fingerprint()
    runner = session.runner(ledger=type("L", (), {
        "append": lambda self, r: r})())
    assert runner.cal is CALIBRATION


def test_session_sweep_keys_cache_by_calibration(tmp_path):
    hot = dataclasses.replace(CALIBRATION, ram_energy_scale=4.0)
    cold = sweep(only=["table_7.3"], cache_dir=tmp_path)
    assert cold.computed == 1
    with open_session(calibration=hot) as session:
        other = session.sweep(only=["table_7.3"], cache_dir=tmp_path)
    assert other.computed == 1 and other.hits == 0


def test_pooled_session_sweep_prices_with_its_calibration(tmp_path):
    """jobs>1 must not poison the cache: the payload stored under the
    session's key equals what the session computes inline, not the
    default-calibration result."""
    hot = dataclasses.replace(CALIBRATION, ram_energy_scale=4.0)
    default_text = compute_artifact("figure_7.4")["text"]
    with open_session(calibration=hot) as session:
        pooled = session.sweep(only=["figure_7.4"], jobs=2,
                               cache_dir=tmp_path)
        expected = session.compute_artifact("figure_7.4")["text"]
    (outcome,) = pooled.outcomes
    assert outcome.status == "computed"
    assert outcome.payload["text"] == expected
    assert outcome.payload["text"] != default_text
    # the warm rerun serves that same payload back under the hot key
    with open_session(calibration=hot) as session:
        warm = session.sweep(only=["figure_7.4"], jobs=1,
                             cache_dir=tmp_path)
    assert warm.hits == 1
    assert warm.outcomes[0].payload["text"] == expected


def test_scalar_wrapper_is_identical_to_direct_production():
    """compute_artifact's payload is identical (modulo wall clock) to
    producing the spec directly."""
    from repro.harness.registry import get_spec

    assert _stable(compute_artifact("table_7.3")) == \
        _stable(get_spec("table", "7.3").payload())


def test_scalar_wrapper_still_propagates_producer_errors():
    def boom():
        raise ValueError("producer exploded")

    from repro.harness import registry

    spec = registry.select(["table_7.3"])[0]
    broken = dataclasses.replace(spec, producer=boom)
    import repro.api as api
    orig = api._resolve
    api._resolve = lambda name, kind: broken
    try:
        with pytest.raises(ValueError, match="producer exploded"):
            compute_artifact("table_7.3")
    finally:
        api._resolve = orig


def test_compute_artifact_caches_through_the_engine(tmp_path,
                                                   monkeypatch):
    """``cache_dir`` runs a one-spec sweep engine: the warm call is
    served from the cache (the producer is never reached), and a task
    that keeps failing raises instead of returning."""
    from repro.harness.registry import get_spec
    from repro.sweep import engine

    cold = compute_artifact("table_7.3", cache_dir=tmp_path)
    assert _stable(cold) == _stable(get_spec("table", "7.3").payload())

    def boom(kind, name, calibration=None):
        raise ValueError("producer exploded")

    monkeypatch.setattr(engine, "_compute_payload", boom)
    assert compute_artifact("table_7.3", cache_dir=tmp_path) == cold
    with pytest.raises(RuntimeError, match="producer exploded"):
        compute_artifact("figure_7.4", cache_dir=tmp_path)


def test_sweep_payload_equals_direct_production():
    """What sweep returns is what the spec produces directly."""
    from repro.harness.registry import get_spec

    result = sweep(only=["table_7.3"], cache=False)
    assert _stable(result.outcomes[0].payload) == \
        _stable(get_spec("table", "7.3").payload())


def test_unmatched_session_exit_raises():
    session = open_session()
    with pytest.raises(RuntimeError, match="matching __enter__"):
        session.__exit__(None, None, None)


def test_sessions_are_thread_isolated():
    """A session entered on one thread must not leak its model into
    another thread's pricing."""
    import threading

    from repro.model.system import shared_model

    hot = dataclasses.replace(CALIBRATION, ram_energy_scale=4.0)
    entered = threading.Event()
    release = threading.Event()

    def holder():
        with open_session(calibration=hot):
            entered.set()
            release.wait(timeout=10.0)

    thread = threading.Thread(target=holder)
    thread.start()
    try:
        assert entered.wait(timeout=10.0)
        assert shared_model().cal is CALIBRATION
    finally:
        release.set()
        thread.join()
