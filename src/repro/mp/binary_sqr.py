"""Binary-field squaring (paper Section 4.2.3).

Squaring in GF(2^m) interleaves zero bits between the operand bits, an O(k)
operation.  The software-only system accelerates it with a precomputed
256-entry table mapping each 8-bit polynomial to its 16-bit square; the
ISA-extended system instead squares 32 bits at a time with MULGF2(a, a).
"""

from __future__ import annotations

# SQUARE_TABLE_8BIT is the baseline software's precomputed squaring table:
# 256 entries of 16-bit squares, scanned 8 bits at a time (costs 512 B of
# RAM).  repro.fields squares through the same table, so it is defined
# there (repro.mp imports repro.fields, never the reverse).
from repro.fields.inversion import SQUARE_TABLE_8BIT
from repro.mp.words import word_mask


def binary_square_words(a: list[int], w: int = 32) -> list[int]:
    """Square a limb array via the 8-bit table (software path).

    Each w-bit word expands into two w-bit result words; the result is 2k
    words long and still needs reduction.
    """
    out = []
    for word in a:
        expanded = 0
        for byte_idx in range(w // 8):
            byte = (word >> (8 * byte_idx)) & 0xFF
            expanded |= SQUARE_TABLE_8BIT[byte] << (16 * byte_idx)
        out.append(expanded & word_mask(w))
        out.append((expanded >> w) & word_mask(w))
    return out


def binary_square_clmul(a: list[int], w: int = 32) -> list[int]:
    """Square via MULGF2(a_i, a_i) one word at a time (ISA-extended path).

    A carry-less self-multiplication has no cross terms, so it equals the
    bit interleave; this replaces the table with k multiplier passes.
    """
    from repro.mp.binary_mul import clmul_word

    out = []
    for word in a:
        hi, lo = clmul_word(word, word, w)
        out.append(lo)
        out.append(hi)
    return out
