"""Reference loops the fast paths must agree with.

``repro`` computes carry-less products with a width-4 comb, squares
through the 8-bit table, and takes Billie's values from those.  The loops
here are the definitions those fast paths must agree with: one multiplier
bit, one squared bit, one digit-serial cycle at a time.  The I-cache
study replays line runs in one loop; :class:`PerFetchICache` is the cache
and stream buffer of the :mod:`repro.pete.icache` docstring, one fetch at
a time.
"""

from repro.fields.nist import BINARY_TAIL_EXPONENTS


def bitserial_mul(a: int, b: int) -> int:
    """Carry-less product, one multiplier bit at a time."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        b >>= 1
    return result


def interleave_sqr(a: int) -> int:
    """Carry-less square: a zero bit after every operand bit."""
    result = 0
    i = 0
    while a:
        if a & 1:
            result |= 1 << (2 * i)
        a >>= 1
        i += 1
    return result


def _fold(c: int, m: int) -> int:
    """Substitute x^m by the reduction polynomial's tail until deg < m."""
    tail = BINARY_TAIL_EXPONENTS[m]
    while c >> m:
        high = c >> m
        c &= (1 << m) - 1
        for e in tail:
            c ^= high << e
    return c


def algorithm8_mul(a: int, b: int, m: int, digit: int) -> tuple[int, int]:
    """Billie's digit-serial multiplier cycle by cycle (paper Algorithm 8):
    (value, cycles)."""
    n_digits = -(-m // digit)
    mask_digit = (1 << digit) - 1
    c = 0
    shifted_a = a
    for i in range(n_digits):
        b_digit = (b >> (digit * i)) & mask_digit
        # B_i * a(x): digit-by-multiplicand partial product
        for bit in range(digit):
            if (b_digit >> bit) & 1:
                c ^= shifted_a << bit
        # a(x) <- a(x) * x^D mod f(x)
        shifted_a = _fold(shifted_a << digit, m)
    # final reduction of the m + D - 1 bit accumulator, plus setup
    return _fold(c, m), n_digits + 2


def fig513_square(a: int, m: int) -> int:
    """Billie's hardwired squarer (paper Fig. 5.13): interleave, fold."""
    return _fold(interleave_sqr(a), m)


class PerFetchICache:
    """Direct-mapped I-cache plus single-entry stream buffer, one fetch at
    a time, as the :mod:`repro.pete.icache` docstring states them."""

    COUNTERS = ("icache_accesses", "icache_hits", "icache_misses",
                "icache_fills", "prefetch_hits", "prefetch_fetches",
                "rom_line_reads")

    def __init__(self, size_bytes: int, prefetch: bool,
                 line_bytes: int = 16, miss_penalty: int = 3) -> None:
        self.line_bytes = line_bytes
        self.prefetch = prefetch
        self.miss_penalty = miss_penalty
        self.tags = [None] * (size_bytes // line_bytes)
        self.buffer = None
        self.counts = dict.fromkeys(self.COUNTERS, 0)

    def fetch(self, addr: int) -> int:
        """One fetch; returns its stall cycles."""
        count = self.counts
        line = addr // self.line_bytes
        index = line % len(self.tags)
        count["icache_accesses"] += 1
        if self.tags[index] == line:
            count["icache_hits"] += 1
            return 0
        count["icache_misses"] += 1
        count["icache_fills"] += 1
        self.tags[index] = line
        stall = 0
        if self.prefetch and self.buffer == line:
            count["prefetch_hits"] += 1
        else:
            stall = self.miss_penalty
            count["rom_line_reads"] += 1
        if self.prefetch:
            self.buffer = line + 1
            count["prefetch_fetches"] += 1
            count["rom_line_reads"] += 1
        return stall
