"""Instruction-cache behaviour for the full ECDSA workload (Section 7.5).

The kernels alone almost never miss (each fits in any cache), so the
interesting cache behaviour comes from the *whole program*: a hot loop in
which the point routines interleave calls to the multiplication,
reduction and add/sub kernels (~3 KB of cyclically re-executed code),
plus the scalar-multiplication driver, occasional order arithmetic and
runtime glue, plus a tail of cold library code that misses at any
realistic cache size.

We build a synthetic instruction-address trace with that structure and
run it through the *real* direct-mapped cache + stream-buffer simulator
(:mod:`repro.pete.icache`).  The trace generator is the substitution
documented in DESIGN.md; the cache, prefetcher, fill traffic and miss
penalties are simulated, not modeled.  The trace is generated as line
runs, and only the first fetch of each run goes through the cache (see
:func:`replay_line_runs`).  The resulting miss profile
reproduces the paper's qualitative findings: the big miss-rate drop
arrives at 4 KB (the working-set knee), the drop beyond 4 KB is small
(cold-code floor), and prefetch coverage is high for the large caches'
sequential misses but poor for the small caches' conflict misses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.model.units import unit
from repro.pete.icache import ICache, ICacheConfig
from repro.pete.stats import CoreStats

#: Hot-code layout (function -> size in bytes).  The cyclic core
#: (field_mul + field_reduce + field_addsub + one point routine) is
#: ~3 KB; everything hot together is ~5.4 KB -- the measured working-set
#: knee lands at 4 KB as in the paper.
HOT_LAYOUT: tuple[tuple[str, int], ...] = (
    ("field_mul", 1300),
    ("field_reduce", 800),
    ("field_addsub", 400),
    ("point_double", 520),
    ("point_add", 560),
    ("scalar_loop", 280),
    ("order_arith", 700),
    ("misc_runtime", 800),
)

#: Kernels whose bodies execute in a strided (branchy) order would make
#: misses non-sequential; the generated kernels are straight-line loops,
#: so the set is empty and the stream buffer covers most misses -- its
#: energy downside at large caches comes from the per-fetch buffer
#: compare and the speculative ROM reads, as the paper observes.
STRIDED_FUNCTIONS: frozenset[str] = frozenset()

#: Cold-code excursions (library calls, exception paths): one ~1.1 KB
#: sweep into a 64 KB region per point operation on average.  These are
#: the compulsory misses that remain at every cache size (the 4->8 KB
#: floor).
COLD_PROBABILITY = 1.0
COLD_CHUNK_BYTES = 480
COLD_REGION_BYTES = 64 * 1024


@dataclass(frozen=True)
class CacheStudyResult:
    """Outcome of one cache configuration against the ECDSA trace."""

    config: ICacheConfig
    accesses: int
    misses: int
    prefetch_hits: int
    rom_line_reads: int
    extra_stall_cycles: int

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def effective_miss_rate(self) -> float:
        """Misses that actually stall (stream-buffer hits do not)."""
        stalls = self.misses - self.prefetch_hits
        return stalls / self.accesses if self.accesses else 0.0

    @property
    def prefetch_coverage(self) -> float:
        return self.prefetch_hits / self.misses if self.misses else 0.0


def _function_bases() -> tuple[dict[str, int], int]:
    bases = {}
    addr = 0x0000_2000  # past the reset/init region
    for name, size in HOT_LAYOUT:
        bases[name] = addr
        addr += (size + 15) & ~15
    return bases, addr


def _body(base: int, size: int, strided: bool) -> list[tuple[int, int]]:
    """One execution of a function body as line runs, optionally in the
    strided (branchy) order."""
    lines = list(range(base, base + size, 16))
    order = lines[::2] + lines[1::2] if strided else lines
    end = base + size
    return [(line, -(-(min(line + 16, end) - line) // 4)) for line in order]


def ecdsa_line_runs(point_ops: int = 150,
                    seed: int = 7) -> Iterator[tuple[int, int]]:
    """The instruction fetches of ``point_ops`` point operations of an
    ECDSA scalar multiplication, as line runs: (first address, fetch
    count) for each stretch of consecutive words inside one 16-byte
    line."""
    rng = random.Random(seed)
    bases, cold_base = _function_bases()
    sizes = dict(HOT_LAYOUT)
    bodies = {name: _body(bases[name], sizes[name], name in STRIDED_FUNCTIONS)
              for name in sizes}

    for op in range(point_ops):
        point = "point_add" if op % 3 == 0 else "point_double"
        pbase, psize = bases[point], sizes[point]
        chunk = max(16, (psize // 9) & ~15)
        for i in range(9):
            # the point routine's body interleaves with its field calls
            yield from _body(pbase + chunk * i, chunk, False)
            yield from bodies["field_mul"]
            yield from bodies["field_reduce"]
            if i < 7:
                yield from bodies["field_addsub"]
        yield from bodies["scalar_loop"]
        if rng.random() < 0.35:
            yield from bodies["misc_runtime"]
        if rng.random() < 0.02:
            yield from bodies["order_arith"]
        if rng.random() < COLD_PROBABILITY:
            offset = cold_base + 16 * rng.randrange(COLD_REGION_BYTES // 16)
            yield from _body(offset, COLD_CHUNK_BYTES, False)


def ecdsa_instruction_trace(point_ops: int = 150,
                            seed: int = 7) -> Iterator[int]:
    """Instruction addresses for ``point_ops`` point operations of an
    ECDSA scalar multiplication: :func:`ecdsa_line_runs`, one address
    per fetch."""
    for first, count in ecdsa_line_runs(point_ops, seed):
        yield from range(first, first + 4 * count, 4)


def replay_line_runs(cache: ICache,
                     runs: Iterable[tuple[int, int]]) -> int:
    """Fetch line runs through ``cache``; returns the stall cycles.

    Only a run's first fetch goes through :meth:`ICache.access`.  The
    rest of the run are counted as hits, which is exact: in a
    direct-mapped cache with a single-entry stream buffer, re-fetching
    the line just accessed is a hit (the access left its tag in place)
    and changes no state.
    """
    stalls = repeats = 0
    for first, count in runs:
        stalls += cache.access(first)
        repeats += count - 1
    cache.stats.icache_accesses += repeats
    cache.stats.icache_hits += repeats
    return stalls


@unit
def cache_study(size_bytes: int, prefetch: bool,
                point_ops: int = 150) -> CacheStudyResult:
    """Run the synthetic ECDSA trace through the real cache simulator."""
    config = ICacheConfig(size_bytes=size_bytes, prefetch=prefetch)
    stats = CoreStats()
    extra_stalls = replay_line_runs(ICache(config, stats),
                                    ecdsa_line_runs(point_ops))
    return CacheStudyResult(
        config=config,
        accesses=stats.icache_accesses,
        misses=stats.icache_misses,
        prefetch_hits=stats.prefetch_hits,
        rom_line_reads=stats.rom_line_reads,
        extra_stall_cycles=extra_stalls,
    )


def miss_profile() -> dict[tuple[int, bool], CacheStudyResult]:
    """The Fig. 7.12 sweep: 1/2/4/8 KB, with and without prefetch."""
    results = {}
    for size_kb in (1, 2, 4, 8):
        for prefetch in (False, True):
            results[(size_kb, prefetch)] = cache_study(size_kb * 1024,
                                                       prefetch)
    return results
