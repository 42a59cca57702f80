"""BitMatrix's conversions against a naive bit-by-bit unpack."""

import random
from fractions import Fraction

import pytest

from oracles import unpack_bits
from singmat.errors import DimensionMismatch
from singmat.matrices import BitMatrix


@pytest.mark.parametrize("bad", [2, -1, 0.5])
def test_from_rows_rejects_entries_that_are_not_bits(bad):
    with pytest.raises(ValueError, match="not a bit"):
        BitMatrix.from_rows([[1, 0, 1], [0, bad, 1]])


def test_from_rows_rejects_ragged_rows():
    with pytest.raises(DimensionMismatch):
        BitMatrix.from_rows([[1, 0, 1], [0, 1]])
    with pytest.raises(DimensionMismatch):
        BitMatrix.from_rows([[1, 0], [0, 1]], n_cols=3)


def test_from_rows_takes_any_value_equal_to_zero_or_one():
    m = BitMatrix.from_rows([[True, Fraction(0)], [False, 1]])
    assert m.rows == (0b01, 0b10)


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 130])
def test_lists_and_text_match_a_naive_unpack(width):
    rng = random.Random(width)
    rows = [0, (1 << width) - 1] + [rng.getrandbits(width) if width else 0 for _ in range(5)]
    m = BitMatrix(len(rows), width, tuple(rows))
    naive = [list(unpack_bits(r, width)) for r in rows]
    assert m.to_lists() == naive
    assert str(m) == "\n".join("".join(str(b) for b in row) for row in naive)
    assert BitMatrix.from_rows(naive, width) == m


def test_empty_shapes():
    assert BitMatrix.zeros(0, 4).to_lists() == []
    assert str(BitMatrix.zeros(0, 4)) == ""
    assert BitMatrix.from_rows([], 4) == BitMatrix.zeros(0, 4)
    assert BitMatrix.from_rows([]) == BitMatrix.zeros(0, 0)
