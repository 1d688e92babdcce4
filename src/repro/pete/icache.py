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
"""

from __future__ import annotations

from dataclasses import dataclass

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

    def _split(self, addr: int) -> tuple[int, int]:
        line_addr = addr // self.config.line_bytes
        index = line_addr % self.config.n_lines
        return line_addr, index

    def access(self, addr: int, now: int = 0) -> int:
        """Look up one instruction fetch; returns the stall penalty in
        cycles (0 on a hit) and updates the event counters.

        The caller charges ROM line reads through the returned events:
        every miss costs one ROM line read; a prefetch-buffer hit costs no
        stall but the buffer then issues the next line's ROM read.
        ``now`` is the current core cycle, used only to timestamp trace
        events -- the cache's own state machine never reads it.
        """
        cfg = self.config
        self.stats.icache_accesses += 1
        line_addr, index = self._split(addr)
        if self.tags[index] == line_addr:
            self.stats.icache_hits += 1
            if self.tracer is not None:
                self.tracer.emit(TraceEvent(
                    ICACHE_ACCESS, now, 0, addr, "icache", "hit"))
            return 0
        self.stats.icache_misses += 1
        if cfg.prefetch and self._pf_tag == line_addr:
            # stream-buffer hit: forward + fill cache, prefetch next line
            self.stats.prefetch_hits += 1
            self.tags[index] = line_addr
            self.stats.icache_fills += 1
            self._pf_tag = line_addr + 1
            self.stats.prefetch_fetches += 1
            self.stats.rom_line_reads += 1
            if self.tracer is not None:
                self.tracer.emit(TraceEvent(
                    ICACHE_ACCESS, now, 0, addr, "icache", "pf_hit"))
                self.tracer.emit(TraceEvent(
                    ICACHE_FILL, now, 0, addr, "icache", "pf_fill"))
                self.tracer.emit(TraceEvent(
                    ROM_LINE, now, 0, addr, "rom", "prefetch"))
            return 0
        # true miss: read line from ROM, fill the cache
        self.stats.rom_line_reads += 1
        self.tags[index] = line_addr
        self.stats.icache_fills += 1
        if self.tracer is not None:
            self.tracer.emit(TraceEvent(
                ICACHE_ACCESS, now, 0, addr, "icache", "miss"))
            self.tracer.emit(TraceEvent(
                ICACHE_FILL, now, cfg.miss_penalty, addr, "icache", "fill"))
            self.tracer.emit(TraceEvent(
                ROM_LINE, now, 0, addr, "rom", "fill"))
        if cfg.prefetch:
            self._pf_tag = line_addr + 1
            self.stats.prefetch_fetches += 1
            self.stats.rom_line_reads += 1
            if self.tracer is not None:
                self.tracer.emit(TraceEvent(
                    ROM_LINE, now, 0, addr, "rom", "prefetch"))
        return cfg.miss_penalty
