"""Composed assembly programs: whole field operations on Pete.

The cost model composes kernels analytically (kernel cycles + calibrated
call overhead).  These programs compose them *in assembly* -- a real
``fmul`` function that calls the multiplication kernel and then the
reduction kernel through the standard jal/jr convention, with operands
marshalled through registers the way compiled code does -- so the
analytic composition can be validated against a measured one.  They are
the ``fmul_p192`` and ``fmul_b163`` entries of
:mod:`repro.kernels.catalog`, built and run like every other kernel.
"""

from __future__ import annotations

from repro.kernels import binary_kernels, prime_kernels
from repro.kernels.codegen import TABLE_OFF, Asm
from repro.pete.memory import RAM_BASE

#: RAM offset of the 2k-word unreduced product.
PRODUCT_OFF = 0xC00


def gen_fmul_p192() -> str:
    """fmul(dst, a, b) for P-192: operand-scanning multiply into a
    scratch product, then NIST fast reduction into dst."""
    asm = Asm()
    asm.label("fmul_p192")
    asm.emit("addiu $sp, $sp, -16")
    asm.emit("sw $ra, 0($sp)")
    asm.emit("sw $a0, 4($sp)", "save dst")
    asm.comment("product = a * b")
    asm.emit(f"li $a0, {RAM_BASE + PRODUCT_OFF}")
    asm.emit("jal os_mul")
    asm.ds("nop")
    asm.comment("dst = product mod p192")
    asm.emit("lw $a0, 4($sp)")
    asm.emit(f"li $a1, {RAM_BASE + PRODUCT_OFF}")
    asm.emit("jal red_p192")
    asm.ds("nop")
    asm.emit("lw $ra, 0($sp)")
    asm.emit("jr $ra")
    asm.ds("addiu $sp, $sp, 16")
    src = asm.source()
    return src + prime_kernels.gen_os_mul(6) + prime_kernels.gen_red_p192()


def gen_fmul_b163() -> str:
    """fmul(dst, a, b) for B-163: comb multiply, then Algorithm 7."""
    asm = Asm()
    asm.label("fmul_b163")
    asm.emit("addiu $sp, $sp, -16")
    asm.emit("sw $ra, 0($sp)")
    asm.emit("sw $a0, 4($sp)", "save dst")
    asm.emit(f"li $a0, {RAM_BASE + PRODUCT_OFF}")
    asm.emit(f"li $a3, {RAM_BASE + TABLE_OFF}")
    asm.emit("jal comb_mul")
    asm.ds("nop")
    asm.emit("lw $a0, 4($sp)")
    asm.emit(f"li $a1, {RAM_BASE + PRODUCT_OFF}")
    asm.emit("jal red_b163")
    asm.ds("nop")
    asm.emit("lw $ra, 0($sp)")
    asm.emit("jr $ra")
    asm.ds("addiu $sp, $sp, 16")
    src = asm.source()
    return (src + binary_kernels.gen_comb_mul(6)
            + binary_kernels.gen_red_b163())
