"""The kernel table: every generated Pete kernel, declared once.

A :class:`Kernel` entry says what a kernel *is*: its source generator
and entry label, the ISA switches its core is built with, the size the
verifier analyses it at, and how one problem instance is drawn, laid
out and checked.  Everything that builds a kernel image reads this
table: :class:`repro.kernels.runner.KernelRunner` (``measure``,
``prepare``, ``prepare_lanes``, ``profile``) loads :func:`image`, and
the verifier (:func:`repro.analysis.verify.build_image`) analyses the
same memoized image.

Operands come from one shared ``random.Random(0xECC)``, so a process
that measures the same kernels in the same order draws the same
operands, and the data-dependent cycle counts repeat exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.fields.inversion import _poly_mul, _poly_sqr
from repro.fields.nist import NIST_PRIMES, reduce_binary
from repro.kernels import (
    binary_kernels,
    composed,
    prime_kernels,
    scalar_kernels,
    symmetric_kernels,
)
from repro.kernels.codegen import A_OFF, B_OFF, DST_OFF, TABLE_OFF
from repro.mp.binary_sqr import SQUARE_TABLE_8BIT
from repro.mp.words import from_int, to_int
from repro.pete.assembler import Assembled, assemble
from repro.pete.cpu import Pete
from repro.pete.memory import RAM_BASE
from repro.symmetric.speck import speck64_encrypt, speck64_expand_key

#: The label of the halt stub every image ends with; ``$ra`` points
#: here at entry, so the kernel's closing ``jr $ra`` stops the core.
HALT = "__halt"

_RNG = random.Random(0xECC)


class KernelMismatch(AssertionError):
    """A kernel's result differs from its reference."""


@dataclass(frozen=True)
class Operands:
    """One drawn problem instance: its register and RAM set-up, and
    ``ok``, which tells whether a finished core holds the reference
    result."""

    regs: dict[str, int]
    ram: dict[int, list[int]]          # RAM_BASE-relative offset -> words
    ok: Callable[[Pete], bool]

    def load(self, cpu: Pete) -> None:
        for reg, value in self.regs.items():
            cpu.set_reg(reg, value)
        for offset, words in self.ram.items():
            cpu.mem.write_ram_words(RAM_BASE + offset, words)

    def check(self, cpu: Pete, what: str) -> None:
        """Raise :class:`KernelMismatch` unless the result is right."""
        if not self.ok(cpu):
            raise KernelMismatch(f"{what}: result differs from the "
                                 f"reference")


@dataclass(frozen=True)
class Kernel:
    """One generated Pete kernel, as every harness builds it."""

    name: str
    #: assembly source at size k
    source: Callable[[int], str]
    #: draws one problem instance at size k from the shared RNG
    operands: Callable[[int], Operands]
    #: ISA switches the core is built with, and the bounds priced with
    prime_ext: bool = False
    binary_ext: bool = False
    #: the size the verifier analyses and runs; the only size a
    #: ``fixed`` kernel accepts
    k: int = 6
    fixed: bool = False
    #: the label the harness jumps to, when it is not the name
    label: str = ""

    @property
    def entry(self) -> str:
        return self.label or self.name


# -- operand draws ---------------------------------------------------------
#
# Each draw takes its operands in one fixed order: the committed cycle
# counts of the data-dependent kernels rest on it.

def _ptr(offset: int) -> int:
    return RAM_BASE + offset


#: Pointer arguments: $a0 -> dst, $a1 -> a, $a2 -> b.
_DST_A = {"a0": _ptr(DST_OFF), "a1": _ptr(A_OFF)}
_DST_A_B = {**_DST_A, "a2": _ptr(B_OFF)}

#: The 256 16-bit byte squares, packed two to a word.
_SQUARE_TABLE_WORDS = from_int(to_int(SQUARE_TABLE_8BIT, w=16), 128)


def _out(cpu: Pete, words: int) -> int:
    """The kernel's result: ``words`` words at dst."""
    return to_int(cpu.mem.read_ram_words(_ptr(DST_OFF), words))


def _pair(k: int, a_bits: int, b_bits: int) -> tuple[int, int, dict]:
    """Draw a, then b, laid out at A and B in k words each."""
    a = _RNG.getrandbits(a_bits)
    b = _RNG.getrandbits(b_bits)
    return a, b, {A_OFF: from_int(a, k), B_OFF: from_int(b, k)}


def _mp_add(k: int) -> Operands:
    a, b, ram = _pair(k, 32 * k, 32 * k)
    return Operands(_DST_A_B, ram, lambda cpu: (
        _out(cpu, k) + (cpu.get_reg("v0") << (32 * k)) == a + b))


def _mp_sub(k: int) -> Operands:
    a, b, ram = _pair(k, 32 * k, 32 * k)
    return Operands(_DST_A_B, ram, lambda cpu: (
        _out(cpu, k) == (a - b) % (1 << (32 * k))
        and cpu.get_reg("v0") == (1 if a < b else 0)))


def _mul(k: int) -> Operands:
    a, b, ram = _pair(k, 32 * k, 32 * k)
    return Operands(_DST_A_B, ram, lambda cpu: _out(cpu, 2 * k) == a * b)


def _sqr(k: int) -> Operands:
    a = _RNG.getrandbits(32 * k)
    return Operands({**_DST_A, "a2": _ptr(A_OFF)}, {A_OFF: from_int(a, k)},
                    lambda cpu: _out(cpu, 2 * k) == a * a)


def _red_p192(k: int) -> Operands:
    a = _RNG.getrandbits(192)
    b = _RNG.getrandbits(192)
    product = a * b
    return Operands(_DST_A, {A_OFF: from_int(product, 12)},
                    lambda cpu: _out(cpu, 6) == product % NIST_PRIMES[192])


def _comb_mul(k: int) -> Operands:
    # b's top nibble stays clear: the headroom word holds the spill
    a, b, ram = _pair(k, 32 * k, 32 * k - 4)
    return Operands({**_DST_A_B, "a3": _ptr(TABLE_OFF)}, ram,
                    lambda cpu: _out(cpu, 2 * k + 2) == _poly_mul(a, b))


def _mulgf2(k: int) -> Operands:
    a, b, ram = _pair(k, 32 * k, 32 * k)
    return Operands(_DST_A_B, ram,
                    lambda cpu: _out(cpu, 2 * k) == _poly_mul(a, b))


def _bsqr_table(k: int) -> Operands:
    a = _RNG.getrandbits(32 * k)
    return Operands({**_DST_A, "a3": _ptr(TABLE_OFF)},
                    {A_OFF: from_int(a, k), TABLE_OFF: _SQUARE_TABLE_WORDS},
                    lambda cpu: _out(cpu, 2 * k) == _poly_sqr(a))


def _bsqr_ext(k: int) -> Operands:
    a = _RNG.getrandbits(32 * k)
    return Operands(_DST_A, {A_OFF: from_int(a, k)},
                    lambda cpu: _out(cpu, 2 * k) == _poly_sqr(a))


def _red_b163(k: int) -> Operands:
    a = _RNG.getrandbits(163)
    b = _RNG.getrandbits(163)
    product = _poly_mul(a, b)
    return Operands(_DST_A, {A_OFF: from_int(product, 11)},
                    lambda cpu: _out(cpu, 6) == reduce_binary(product, 163))


def _speck64(k: int) -> Operands:
    key = _RNG.getrandbits(128)
    block = _RNG.getrandbits(64)
    round_keys = speck64_expand_key(key)
    return Operands(
        _DST_A_B, {A_OFF: from_int(block, 2), B_OFF: round_keys},
        lambda cpu: _out(cpu, 2) == speck64_encrypt(block, round_keys))


def _scalar(k: int) -> Operands:
    """k is the scalar's bit width; $a1 = scalar, $a2 = value."""
    scalar = _RNG.getrandbits(k)
    value = _RNG.getrandbits(32)
    return Operands({"a0": _ptr(DST_OFF), "a1": scalar, "a2": value}, {},
                    lambda cpu: _out(cpu, 1) == (scalar * value) & 0xFFFFFFFF)


def _fmul_p192(k: int) -> Operands:
    a, b, ram = _pair(6, 192, 192)
    return Operands(_DST_A_B, ram,
                    lambda cpu: _out(cpu, 6) == (a * b) % NIST_PRIMES[192])


def _fmul_b163(k: int) -> Operands:
    a, b, ram = _pair(6, 163, 163)
    return Operands(_DST_A_B, ram, lambda cpu: (
        _out(cpu, 6) == reduce_binary(_poly_mul(a, b), 163)))


# -- the table ------------------------------------------------------------

KERNELS: dict[str, Kernel] = {kernel.name: kernel for kernel in (
    Kernel("mp_add", prime_kernels.gen_mp_add, _mp_add),
    Kernel("mp_sub", prime_kernels.gen_mp_sub, _mp_sub),
    Kernel("os_mul", prime_kernels.gen_os_mul, _mul),
    Kernel("ps_mul_ext", prime_kernels.gen_ps_mul_ext, _mul,
           prime_ext=True),
    Kernel("ps_sqr_ext",
           lambda k: prime_kernels.gen_ps_mul_ext(k, squaring=True), _sqr,
           prime_ext=True),
    Kernel("red_p192", lambda k: prime_kernels.gen_red_p192(), _red_p192,
           fixed=True),
    Kernel("comb_mul", binary_kernels.gen_comb_mul, _comb_mul),
    # the paper's binary-extended ISA is cumulative with the prime
    # extensions (Section 5.2.2), so SHA is available
    Kernel("ps_mulgf2", binary_kernels.gen_ps_mulgf2, _mulgf2,
           prime_ext=True, binary_ext=True),
    Kernel("bsqr_table", binary_kernels.gen_bsqr_table, _bsqr_table),
    Kernel("bsqr_ext", binary_kernels.gen_bsqr_ext, _bsqr_ext,
           binary_ext=True),
    Kernel("red_b163", lambda k: binary_kernels.gen_red_b163(), _red_b163,
           fixed=True),
    Kernel("speck64", lambda k: symmetric_kernels.gen_speck64_encrypt(),
           _speck64, k=1, fixed=True, label="speck64_enc"),
    Kernel("scalar_daa", scalar_kernels.gen_scalar_daa, _scalar, k=8),
    Kernel("scalar_ladder", scalar_kernels.gen_scalar_ladder, _scalar, k=8),
    Kernel("fmul_p192", lambda k: composed.gen_fmul_p192(), _fmul_p192,
           fixed=True),
    Kernel("fmul_b163", lambda k: composed.gen_fmul_b163(), _fmul_b163,
           fixed=True),
)}


def lookup(name: str, k: int) -> Kernel:
    """The entry for ``name``, checked to accept size ``k``."""
    kernel = KERNELS.get(name)
    if kernel is None:
        raise KeyError(f"unknown kernel {name!r}")
    if kernel.fixed and k != kernel.k:
        raise ValueError(f"kernel {name!r} has the fixed size "
                         f"k={kernel.k}, not k={k}")
    return kernel


@lru_cache(maxsize=256)
def image(name: str, k: int) -> Assembled:
    """The program every harness loads for ``(name, k)``: the source
    and the halt stub, assembled at address 0.  Memoized: a batch
    prepares one program many times, and the assembler dominates that
    cost; an :class:`Assembled` is never mutated, so cores share it."""
    source = lookup(name, k).source(k)
    return assemble(f"{source}\n{HALT}:\n    halt\n", base=0)
