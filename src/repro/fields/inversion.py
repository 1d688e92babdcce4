"""Field inversion algorithms (paper Section 4.2.4).

The paper uses two inversion strategies:

* the **extended Euclidean algorithm** (binary variant for integers,
  polynomial variant for GF(2^m)) -- O(k^2), used in software on Pete for
  every configuration's group-order arithmetic and for field inversion on
  the non-accelerated configurations;
* **Fermat's little theorem** -- an inversion by exponentiation, O(k^3) but
  expressible purely with multiplications/squarings, used on the Monte and
  Billie accelerators where only mul/add map to hardware.

Both are implemented here for both field families, together with Itoh-Tsujii
addition-chain inversion for binary fields (the standard way to realize the
Fermat inversion with ~log2(m) multiplications, which is what an accelerator
driver would issue).
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Integers modulo p
# ---------------------------------------------------------------------------


def egcd_inverse(a: int, p: int) -> int:
    """Modular inverse via the extended Euclidean algorithm."""
    if a % p == 0:
        raise ZeroDivisionError("inverse of zero")
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    if old_r != 1:
        raise ValueError(f"{a} is not invertible modulo {p}")
    return old_s % p


def binary_euclid_inverse(a: int, p: int) -> int:
    """Binary (shift-and-subtract) extended Euclidean inversion.

    This is the division-free variant actually used on Pete (divides are
    expensive on the multi-cycle divider); it needs only shifts, adds and
    subtracts, matching the paper's description.
    """
    if a % p == 0:
        raise ZeroDivisionError("inverse of zero")
    u, v = a % p, p
    x1, x2 = 1, 0
    while u != 1 and v != 1:
        while u % 2 == 0:
            u //= 2
            x1 = x1 // 2 if x1 % 2 == 0 else (x1 + p) // 2
        while v % 2 == 0:
            v //= 2
            x2 = x2 // 2 if x2 % 2 == 0 else (x2 + p) // 2
        if u >= v:
            u, x1 = u - v, x1 - x2
        else:
            v, x2 = v - u, x2 - x1
    return x1 % p if u == 1 else x2 % p


def fermat_inverse(a: int, p: int) -> int:
    """Inversion via Fermat's little theorem: a^(p-2) mod p."""
    if a % p == 0:
        raise ZeroDivisionError("inverse of zero")
    return pow(a, p - 2, p)


def fermat_prime_opcounts(p: int) -> tuple[int, int]:
    """(squarings, multiplications) of a square-and-multiply Fermat
    inversion for exponent p-2, as issued to the Monte accelerator."""
    e = p - 2
    sqr = e.bit_length() - 1
    mul = bin(e).count("1") - 1
    return sqr, mul


# ---------------------------------------------------------------------------
# Binary polynomials modulo f(x)
# ---------------------------------------------------------------------------


def _pdeg(a: int) -> int:
    return a.bit_length() - 1


def poly_euclid_inverse(a: int, f: int) -> int:
    """Extended Euclidean inversion in GF(2)[x] / f(x)."""
    if a == 0:
        raise ZeroDivisionError("inverse of zero")
    u, v = a, f
    g1, g2 = 1, 0
    while u != 1:
        j = _pdeg(u) - _pdeg(v)
        if j < 0:
            u, v = v, u
            g1, g2 = g2, g1
            j = -j
        u ^= v << j
        g1 ^= g2 << j
        if u == 0:
            raise ValueError("polynomial not invertible")
    return g1


def itoh_tsujii_chain(m: int) -> list[tuple[int, int]]:
    """Addition chain for the Itoh-Tsujii inversion exponent in GF(2^m).

    Returns steps ``(i, j)`` meaning: beta_{i+j} = beta_i^(2^j) * beta_j
    where beta_k = a^(2^k - 1).  The inverse is beta_{m-1}^2.  The chain is
    built from the binary expansion of m-1 (the textbook construction), so
    it uses floor(log2(m-1)) + weight(m-1) - 1 multiplications.
    """
    target = m - 1
    bits = bin(target)[2:]
    chain: list[tuple[int, int]] = []
    have = 1
    for b in bits[1:]:
        chain.append((have, have))
        have *= 2
        if b == "1":
            chain.append((have, 1))
            have += 1
    assert have == target
    return chain


def itoh_tsujii_inverse(a: int, m: int, reduce_fn) -> int:
    """Itoh-Tsujii inversion in GF(2^m): a^(2^m - 2).

    ``reduce_fn`` reduces a polynomial product modulo the field polynomial.
    Counts: len(chain) multiplications plus m-1 squarings total.
    """
    if a == 0:
        raise ZeroDivisionError("inverse of zero")

    def fsqr(x: int) -> int:
        return reduce_fn(_poly_sqr(x))

    def fmul(x: int, y: int) -> int:
        return reduce_fn(_poly_mul(x, y))

    betas = {1: a}
    for i, j in itoh_tsujii_chain(m):
        b = betas[i]
        for _ in range(j):
            b = fsqr(b)
        betas[i + j] = fmul(b, betas[j])
    return fsqr(betas[m - 1])


def itoh_tsujii_opcounts(m: int) -> tuple[int, int]:
    """(squarings, multiplications) of an Itoh-Tsujii inversion in GF(2^m),
    as issued to the Billie accelerator."""
    chain = itoh_tsujii_chain(m)
    sqr = sum(j for _, j in chain) + 1
    return sqr, len(chain)


def batch_inverse(field, values: list[int]) -> list[int]:
    """Montgomery's simultaneous-inversion trick: n inverses for the
    price of one inversion plus 3(n-1) multiplications.

    Used by the scalar-multiplication precomputation so that converting
    the table points to affine costs a single field inversion (this is
    what keeps inversion counts at two per ECDSA primitive).
    """
    if not values:
        return []
    prefix = [values[0]]
    for v in values[1:]:
        prefix.append(field.mul(prefix[-1], v))
    inv_all = field.inv(prefix[-1])
    out = [0] * len(values)
    for i in range(len(values) - 1, 0, -1):
        out[i] = field.mul(inv_all, prefix[i - 1])
        inv_all = field.mul(inv_all, values[i])
    out[0] = inv_all
    return out


def _square_table() -> tuple[int, ...]:
    """Squares of the 256 bytes: the square of 2q + r is the square of q
    shifted up two places, plus r."""
    table = [0]
    for byte in range(1, 256):
        table.append(table[byte >> 1] << 2 | byte & 1)
    return tuple(table)


#: The 8-bit squaring table of the paper's software path (Section 4.2.3):
#: each byte's 16-bit square.  :mod:`repro.mp.binary_sqr` re-exports it.
SQUARE_TABLE_8BIT: tuple[int, ...] = _square_table()

#: The same squares as 2-byte little-endian strings, so a whole operand
#: squares in one ``bytes`` join.
_SQUARE_BYTES: tuple[bytes, ...] = tuple(
    square.to_bytes(2, "little") for square in SQUARE_TABLE_8BIT)

#: Maps each hex digit to its 4-bit value (the comb's table index).
_NIBBLES = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


def _poly_mul(a: int, b: int) -> int:
    """Carry-less (polynomial) multiplication of two GF(2)[x] elements.

    A width-4 comb (paper Algorithm 6, the window the paper picks): a
    16-entry table of u(x)*a(x) for the longer operand, then the shorter
    one is scanned a hex digit at a time from the top.
    """
    if a.bit_length() < b.bit_length():
        a, b = b, a
    a2 = a << 1
    a3 = a2 ^ a
    a4 = a << 2
    a5 = a4 ^ a
    a6 = a4 ^ a2
    a7 = a4 ^ a3
    a8 = a << 3
    table = (0, a, a2, a3, a4, a5, a6, a7,
             a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a5, a8 ^ a6, a8 ^ a7)
    result = 0
    for u in f"{b:x}".encode().translate(_NIBBLES):
        result = (result << 4) ^ table[u]
    return result


def _poly_sqr(a: int) -> int:
    """Polynomial squaring: interleave zero bits (paper Section 4.2.3),
    a byte at a time through the 8-bit table."""
    octets = a.to_bytes((a.bit_length() + 7) // 8, "little")
    return int.from_bytes(
        b"".join([_SQUARE_BYTES[byte] for byte in octets]), "little")
