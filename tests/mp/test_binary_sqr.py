"""Binary squaring: the 8-bit table and the MULGF2 path."""

from hypothesis import given, settings, strategies as st

from repro.fields import inversion
from repro.fields.inversion import _poly_sqr
from repro.mp.binary_sqr import (
    SQUARE_TABLE_8BIT,
    binary_square_clmul,
    binary_square_words,
)
from repro.mp.words import from_int, to_int
from tests.oracles import interleave_sqr


def test_table_contents():
    assert len(SQUARE_TABLE_8BIT) == 256
    assert SQUARE_TABLE_8BIT[0] == 0
    assert SQUARE_TABLE_8BIT[1] == 1
    assert SQUARE_TABLE_8BIT[0b11] == 0b101
    assert SQUARE_TABLE_8BIT[0xFF] == 0b0101010101010101
    for byte, square in enumerate(SQUARE_TABLE_8BIT):
        assert square == interleave_sqr(byte)
    # one table: the functional squaring reads the same tuple
    assert SQUARE_TABLE_8BIT is inversion.SQUARE_TABLE_8BIT


def test_square_words_paths_agree(rng):
    for k in (6, 9, 18):
        for _ in range(10):
            a = rng.getrandbits(32 * k)
            aw = from_int(a, k)
            expected = _poly_sqr(a)
            assert to_int(binary_square_words(aw)) == expected
            assert to_int(binary_square_clmul(aw)) == expected


def test_square_result_length():
    aw = from_int((1 << 192) - 1, 6)
    assert len(binary_square_words(aw)) == 12
    assert len(binary_square_clmul(aw)) == 12


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=(1 << 192) - 1))
def test_square_property(a):
    aw = from_int(a, 6)
    assert to_int(binary_square_words(aw)) == _poly_sqr(a)
