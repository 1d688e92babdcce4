"""'Pete': the paper's embedded RISC processor (Section 5.1).

A classic five-stage, in-order, pipelined core executing a subset of the
MIPS-II ISA, with:

* a statically scheduled, 4-cycle Karatsuba multiply unit behind the MIPS
  Hi/Lo register pair (Section 5.1.1-5.1.2);
* the prime-field accumulator ISA extensions MADDU / M2ADDU / ADDAU / SHA
  and the binary-field carry-less extensions MULGF2 / MADDGF2 (Section 5.2);
* 256 KB single-cycle program ROM and 16 KB RAM (Fig. 5.1);
* an optional parameterizable direct-mapped instruction cache with a
  single-entry stream-buffer prefetcher and a 128-bit ROM line port
  (Section 5.3).

The simulator is a *timing interpreter*: it executes instructions
functionally, in order, while modeling the cycle effects of the pipeline
(load-use interlocks, branch prediction + delay slots, multiplier
occupancy, cache misses) and counting every memory event the energy model
needs.
"""

from repro.pete.assembler import AssemblyError, assemble
from repro.pete.cpu import Pete, Program
from repro.pete.icache import ICache, ICacheConfig
from repro.pete.isa import PeteISA
from repro.pete.stats import CoreStats

__all__ = [
    "assemble",
    "AssemblyError",
    "Pete",
    "Program",
    "PeteISA",
    "ICache",
    "ICacheConfig",
    "CoreStats",
]
