"""Generated assembly kernels for the multi-precision inner loops.

The paper compiles its C++ ECDSA suite with GCC and measures cycle counts
on Verilator; we instead *generate* hand-scheduled MIPS assembly for the
multi-precision kernels that dominate execution time, run them on the Pete
timing simulator, and validate every result bit-for-bit against
:mod:`repro.mp`.  The measured per-kernel cycle counts (and ROM/RAM
activity) feed the whole-operation model in :mod:`repro.model`.

Kernels, each declared once in :mod:`repro.kernels.catalog` (``k`` is
the word count, the scalar's bit width for the scalar loops; the
reductions, the composed field multiplies and ``speck64`` have one
fixed size):

========================  =====================================  ==========
kernel                    implements                             ISA needs
========================  =====================================  ==========
``mp_add`` / ``mp_sub``   word add/sub with carry/borrow         base
``os_mul``                operand-scanning mul (Algorithm 2)     base
``ps_mul_ext``            product-scanning mul (Algorithm 3)     MADDU/SHA
``ps_sqr_ext``            product-scanning square                M2ADDU
``red_p192``              NIST fast reduction (Algorithm 4)      base
``comb_mul``              comb binary mul (Algorithm 6, w=4)     base
``bsqr_table``            table-based binary squaring            base
``ps_mulgf2``             carry-less product scanning            MADDGF2
``bsqr_ext``              squaring via MULGF2                    MULGF2
``red_b163``              binary fast reduction (Algorithm 7)    base
``fmul_p192``             ``os_mul`` then ``red_p192``, linked   base
``fmul_b163``             ``comb_mul`` then ``red_b163``, linked base
``speck64``               one Speck64/128 block                  base
``scalar_daa``            double-and-add scalar loop             base
``scalar_ladder``         Montgomery-ladder scalar loop          base
========================  =====================================  ==========
"""

from repro.kernels.runner import KernelResult, KernelRunner

__all__ = ["KernelRunner", "KernelResult"]
