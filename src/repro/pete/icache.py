"""Direct-mapped instruction cache with stream-buffer prefetch
(paper Section 5.3, Figs. 5.5/5.6).

Parameterizable size (number of lines) with fixed 16-byte lines holding
four 32-bit instructions.  Tag and data are conceptually separate
memories; for energy purposes each lookup is one cache access, each miss
is one 128-bit ROM line read plus one fill.

The prefetcher is a single-entry stream buffer (after Jouppi): on a miss,
the next sequential line is fetched into the buffer; a miss that hits the
buffer promotes the line into the cache without stalling and prefetches
the next line.

One fetch of address ``a`` works on line ``a // line_bytes``, held at
index ``line % n_lines``:

* **hit** -- the tag at that index is the line: no stall, no state
  changes;
* **stream-buffer hit** (prefetch on, the buffer holds the line) -- a
  miss that does not stall: the line fills the cache and the buffer
  fetches line + 1 (one ROM line read);
* **true miss** -- stalls ``miss_penalty`` cycles and reads the line
  from ROM into the cache; with prefetch on, the buffer then fetches
  line + 1 (a second ROM line read).

Every fetch counts one access and every miss one fill; with prefetch
on, every miss counts one prefetch fetch.  :meth:`ICache.replay` runs
this machine over line runs -- ``count`` consecutive 32-bit fetches
from ``first`` inside one line -- and :meth:`ICache.access` is its
one-fetch case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.pete.stats import CoreStats
from repro.trace.events import (
    ICACHE_ACCESS,
    ICACHE_FILL,
    ROM_LINE,
    TraceEvent,
)


@dataclass(frozen=True)
class ICacheConfig:
    """Cache geometry and behaviour."""

    size_bytes: int = 4096
    line_bytes: int = 16
    prefetch: bool = False
    miss_penalty: int = 3  # cycles; 128-bit ROM port, Section 5.3.2

    @property
    def n_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    def label(self) -> str:
        kb = self.size_bytes // 1024
        return f"{kb}KB{'-p' if self.prefetch else ''}"


class ICache:
    """Timing/functional model of the direct-mapped instruction cache."""

    def __init__(self, config: ICacheConfig, stats: CoreStats) -> None:
        if config.n_lines & (config.n_lines - 1):
            raise ValueError("line count must be a power of two")
        self.config = config
        self.stats = stats
        self.tags: list[int | None] = [None] * config.n_lines
        # The data store mirrors the ROM contents; we track presence only
        # (contents are always consistent since ROM is immutable).
        self._pf_tag: int | None = None  # prefetch buffer line address
        self.tracer = None  # TraceBus, attached by the owning Pete

    def invalidate(self) -> None:
        """The reset routine's cache initialization (Section 5.3.2)."""
        self.tags = [None] * self.config.n_lines
        self._pf_tag = None

    def access(self, addr: int, now: int = 0) -> int:
        """Look up one instruction fetch: :meth:`replay` of the one-fetch
        run at ``addr``.  Returns the stall penalty in cycles (0 on a
        hit); ``now`` is the core cycle that timestamps trace events."""
        return self.replay(((addr, 1),), now)

    def replay(self, runs: Iterable[tuple[int, int]], now: int = 0) -> int:
        """Fetch line runs ``(first, count)``; returns the stall cycles
        and updates the event counters.

        Only a run's first fetch can miss: it leaves its line's tag in
        place, so the run's other ``count - 1`` fetches hit and change
        no state.  The caller charges ROM line reads through the
        counters: every true miss reads its line, and with prefetch on
        every miss also reads the next line into the buffer.  ``now`` is
        the core cycle, used only to timestamp trace events -- the state
        machine never reads it.
        """
        cfg = self.config
        # n_lines is a power of two, so ``line & mask`` is line % n_lines
        line_bytes, mask = cfg.line_bytes, cfg.n_lines - 1
        prefetch, penalty = cfg.prefetch, cfg.miss_penalty
        tags, pf_tag, tracer = self.tags, self._pf_tag, self.tracer
        fetches = misses = pf_hits = stalls = 0
        for first, count in runs:
            fetches += count
            line = first // line_bytes
            index = line & mask
            if tags[index] == line:
                outcome = "hit"
            else:
                misses += 1
                tags[index] = line
                if prefetch and pf_tag == line:
                    # stream-buffer hit: forward + fill, no stall
                    pf_hits += 1
                    outcome = "pf_hit"
                else:
                    # true miss: read the line from ROM, fill the cache
                    stalls += penalty
                    outcome = "miss"
                if prefetch:
                    pf_tag = line + 1
            if tracer is not None:
                _trace_run(tracer, cfg, now, first, count, outcome)
        self._pf_tag = pf_tag
        prefetches = misses if prefetch else 0
        stats = self.stats
        stats.icache_accesses += fetches
        stats.icache_hits += fetches - misses
        stats.icache_misses += misses
        stats.icache_fills += misses
        stats.prefetch_hits += pf_hits
        stats.prefetch_fetches += prefetches
        stats.rom_line_reads += misses - pf_hits + prefetches
        return stalls


def _trace_run(tracer, cfg: ICacheConfig, now: int, first: int, count: int,
               outcome: str) -> None:
    """The trace events of one line run, in fetch order."""
    emit = tracer.emit
    emit(TraceEvent(ICACHE_ACCESS, now, 0, first, "icache", outcome))
    if outcome == "pf_hit":
        emit(TraceEvent(ICACHE_FILL, now, 0, first, "icache", "pf_fill"))
        emit(TraceEvent(ROM_LINE, now, 0, first, "rom", "prefetch"))
    elif outcome == "miss":
        emit(TraceEvent(ICACHE_FILL, now, cfg.miss_penalty, first,
                        "icache", "fill"))
        emit(TraceEvent(ROM_LINE, now, 0, first, "rom", "fill"))
        if cfg.prefetch:
            emit(TraceEvent(ROM_LINE, now, 0, first, "rom", "prefetch"))
    for addr in range(first + 4, first + 4 * count, 4):
        emit(TraceEvent(ICACHE_ACCESS, now, 0, addr, "icache", "hit"))
