"""Direct-mapped instruction cache + stream-buffer prefetch."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.icache_model import ecdsa_line_runs
from repro.pete.icache import ICache, ICacheConfig
from repro.pete.stats import CoreStats
from tests.oracles import PerFetchICache

#: The eight configurations of the Fig. 7.12 cache study.
STUDY_CONFIGS = [(kb * 1024, prefetch) for kb in (1, 2, 4, 8)
                 for prefetch in (False, True)]


def make(size=1024, prefetch=False):
    stats = CoreStats()
    return ICache(ICacheConfig(size_bytes=size, prefetch=prefetch),
                  stats), stats


def test_config_geometry():
    cfg = ICacheConfig(size_bytes=4096)
    assert cfg.n_lines == 256
    assert cfg.label() == "4KB"
    assert ICacheConfig(size_bytes=1024, prefetch=True).label() == "1KB-p"


def test_non_power_of_two_rejected():
    stats = CoreStats()
    with pytest.raises(ValueError):
        ICache(ICacheConfig(size_bytes=1000), stats)


def test_cold_miss_then_hits():
    cache, stats = make()
    assert cache.access(0x100) == 3, "cold miss pays the penalty"
    assert stats.icache_misses == 1
    assert stats.rom_line_reads == 1
    for offset in (0, 4, 8, 12):
        assert cache.access(0x100 + offset) == 0, "same 16B line"
    assert stats.icache_hits == 4


def test_conflict_eviction():
    cache, stats = make(size=1024)
    cache.access(0x0)
    cache.access(0x400)  # 1KB apart: same index, different tag
    assert stats.icache_misses == 2
    cache.access(0x0)
    assert stats.icache_misses == 3, "first line was evicted"


def test_invalidate():
    cache, stats = make()
    cache.access(0x40)
    cache.invalidate()
    assert cache.access(0x40) == 3


def test_prefetch_covers_sequential_stream():
    cache, stats = make(size=1024, prefetch=True)
    penalty = sum(cache.access(addr) for addr in range(0, 2048, 4))
    # one true cold miss; every subsequent line comes from the buffer
    assert stats.icache_misses == 128
    assert stats.prefetch_hits == 127
    assert penalty == 3, "only the first miss stalls"


def test_prefetch_issues_rom_reads():
    cache, stats = make(size=1024, prefetch=True)
    for addr in range(0, 512, 4):
        cache.access(addr)
    # every miss/promotion also fetched the next line speculatively
    assert stats.rom_line_reads >= stats.icache_misses


def test_no_prefetch_sequential_stalls_every_line():
    cache, stats = make(size=1024, prefetch=False)
    penalty = sum(cache.access(addr) for addr in range(0, 2048, 4))
    assert penalty == 3 * 128


def test_fills_tracked():
    cache, stats = make()
    for addr in (0x0, 0x10, 0x20):
        cache.access(addr)
    assert stats.icache_fills == 3


# ---------------------------------------------------------------------------
# replay and access against the per-fetch reference
# ---------------------------------------------------------------------------


def _fetches(runs):
    for first, count in runs:
        yield from range(first, first + 4 * count, 4)


def _assert_matches_reference(size, prefetch, runs):
    """``ICache.replay`` over the runs and ``ICache.access`` per fetch
    both equal the reference: stalls, every counter, tags and buffer."""
    ref = PerFetchICache(size, prefetch)
    stalls = sum(ref.fetch(addr) for addr in _fetches(runs))
    config = ICacheConfig(size_bytes=size, prefetch=prefetch)
    replayed, per_fetch = CoreStats(), CoreStats()
    by_runs = ICache(config, replayed)
    by_fetch = ICache(config, per_fetch)
    assert by_runs.replay(runs) == stalls
    assert sum(by_fetch.access(addr) for addr in _fetches(runs)) == stalls
    expected = {**CoreStats().as_dict(), **ref.counts}
    for stats, cache in ((replayed, by_runs), (per_fetch, by_fetch)):
        assert stats.as_dict() == expected
        assert cache.tags == ref.tags
        assert cache._pf_tag == ref.buffer


def _line_runs(draws):
    """Runs from (jump line, sequential?, first word, count) draws: a
    sequential run takes the line after the previous one, so the stream
    buffer sees streams as well as conflicts."""
    runs, line = [], 0
    for jump, sequential, word, count in draws:
        line = line + 1 if sequential else jump
        runs.append((16 * line + 4 * word, min(count, 4 - word)))
    return runs


LINE_RUNS = st.lists(st.tuples(st.integers(0, 1023), st.booleans(),
                               st.integers(0, 3), st.integers(1, 4)),
                     max_size=200).map(_line_runs)


@pytest.mark.parametrize("size,prefetch", STUDY_CONFIGS)
@settings(max_examples=40, deadline=None)
@given(runs=LINE_RUNS)
def test_replay_and_access_equal_per_fetch_reference(size, prefetch, runs):
    _assert_matches_reference(size, prefetch, runs)


@pytest.mark.parametrize("size,prefetch", STUDY_CONFIGS)
def test_ecdsa_trace_equals_per_fetch_reference(size, prefetch):
    runs = list(ecdsa_line_runs(point_ops=6))
    _assert_matches_reference(size, prefetch, runs)


class _Recorder:
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append({name: getattr(event, name)
                            for name in event.__slots__})


@pytest.mark.parametrize("prefetch", [False, True])
def test_replay_traces_each_fetch_as_access_does(prefetch):
    runs = list(ecdsa_line_runs(point_ops=2))
    config = ICacheConfig(size_bytes=1024, prefetch=prefetch)
    by_runs, by_fetch = (ICache(config, CoreStats()) for _ in range(2))
    by_runs.tracer, by_fetch.tracer = _Recorder(), _Recorder()
    by_runs.replay(runs)
    for addr in _fetches(runs):
        by_fetch.access(addr)
    assert by_runs.tracer.events == by_fetch.tracer.events
    details = {event["detail"] for event in by_runs.tracer.events}
    assert {"hit", "miss", "fill"} <= details
    assert ("pf_hit" in details) == prefetch
