"""The synthetic ECDSA trace and the cache working-set knee."""

import pytest

from repro.model.icache_model import (
    HOT_LAYOUT,
    cache_study,
    ecdsa_instruction_trace,
    ecdsa_line_runs,
    miss_profile,
    replay_line_runs,
)
from repro.pete.icache import ICache, ICacheConfig
from repro.pete.stats import CoreStats


def test_trace_is_deterministic():
    a = list(ecdsa_instruction_trace(point_ops=5))
    b = list(ecdsa_instruction_trace(point_ops=5))
    assert a == b


def test_trace_addresses_word_aligned():
    for addr in ecdsa_instruction_trace(point_ops=2):
        assert addr % 4 == 0


def test_hot_working_set_size():
    """The hot region is a bit over 4 KB -- the paper's measured knee."""
    total = sum(size for _, size in HOT_LAYOUT)
    assert 4096 < total < 8192


def test_misses_decrease_with_size():
    misses = [cache_study(kb * 1024, False).misses for kb in (1, 2, 4, 8)]
    assert misses == sorted(misses, reverse=True)


def test_knee_at_4kb():
    """The largest relative miss drop comes when the cache first holds
    the working set (2 KB -> 4 KB), and the drop beyond 4 KB is the
    smallest (cold-code floor) -- Section 7.5's shape."""
    m = {kb: cache_study(kb * 1024, False).misses for kb in (1, 2, 4, 8)}
    drop_12 = 1 - m[2] / m[1]
    drop_24 = 1 - m[4] / m[2]
    drop_48 = 1 - m[8] / m[4]
    assert drop_24 > drop_12
    assert drop_48 < drop_24
    assert m[8] > 0, "cold excursions miss at every size"


def test_prefetch_reduces_stalls_most_at_small_caches():
    gains = {}
    for kb in (1, 8):
        plain = cache_study(kb * 1024, False)
        pf = cache_study(kb * 1024, True)
        gains[kb] = plain.extra_stall_cycles - pf.extra_stall_cycles
    assert gains[1] > gains[8] >= 0


def test_prefetch_costs_rom_reads():
    plain = cache_study(4096, False)
    pf = cache_study(4096, True)
    assert pf.rom_line_reads >= plain.rom_line_reads


def test_miss_profile_covers_sweep():
    profile = miss_profile()
    assert set(profile) == {(kb, pf) for kb in (1, 2, 4, 8)
                            for pf in (False, True)}
    for result in profile.values():
        assert 0.0 <= result.miss_rate < 0.5
        assert result.effective_miss_rate <= result.miss_rate


def test_study_cached():
    assert cache_study(2048, False) is cache_study(2048, False)


def test_line_runs_stay_inside_one_line():
    for first, count in ecdsa_line_runs(point_ops=4):
        assert first % 4 == 0 and count >= 1
        assert first // 16 == (first + 4 * (count - 1)) // 16


@pytest.mark.parametrize("size_kb", [1, 2, 4, 8])
@pytest.mark.parametrize("prefetch", [False, True])
def test_line_run_replay_equals_per_fetch_replay(size_kb, prefetch):
    """Counting a run's repeat fetches as hits is exact: every cache
    counter and the stall total equal those of fetching each address."""
    config = ICacheConfig(size_bytes=size_kb * 1024, prefetch=prefetch)
    point_ops = 6
    per_fetch = CoreStats()
    cache = ICache(config, per_fetch)
    stalls = sum(cache.access(addr)
                 for addr in ecdsa_instruction_trace(point_ops))
    runs = CoreStats()
    assert replay_line_runs(ICache(config, runs),
                            ecdsa_line_runs(point_ops)) == stalls
    assert runs.as_dict() == per_fetch.as_dict()
    assert per_fetch.icache_misses > 0 and per_fetch.icache_hits > 0
    study = cache_study(size_kb * 1024, prefetch, point_ops)
    assert (study.accesses, study.misses, study.prefetch_hits,
            study.rom_line_reads, study.extra_stall_cycles) == (
        per_fetch.icache_accesses, per_fetch.icache_misses,
        per_fetch.prefetch_hits, per_fetch.rom_line_reads, stalls)
