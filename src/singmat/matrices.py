"""The zero-one matrix type and its bit packing.

``BitMatrix`` is the package's only matrix type.  It packs each row of
a zero-one matrix into a single Python integer (bit j = column j), so a
whole-row update is one bignum XOR and popcounts come from
``int.bit_count``; it is immutable after construction.  Rows are packed
by ``pack_rows`` and unpacked by ``BitMatrix.to_bit_array``, one numpy
call each; the list and text forms derive from the latter.  Exact
vectors (kernel vectors, fibre and atom inputs) are plain tuples of
``int`` or ``fractions.Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidInput


def pack_rows(a: np.ndarray) -> tuple[int, ...]:
    """Rows of a 2-D 0/1 (or bool) array packed into ints, entry j ->
    bit j, with one ``packbits`` call.  The entries are not checked."""
    packed = np.packbits(a, axis=1, bitorder="little")
    n_rows, width = packed.shape
    if width == 0:
        return (0,) * n_rows
    buf = packed.tobytes()
    return tuple(
        int.from_bytes(buf[k : k + width], "little") for k in range(0, n_rows * width, width)
    )


@dataclass(frozen=True)
class BitMatrix:
    """Dense zero-one matrix with rows stored as packed bit integers."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise InvalidInput("negative dimensions")
        if len(self.rows) != self.n_rows:
            raise InvalidInput("row count does not match n_rows")
        if self.rows and (min(self.rows) < 0 or max(self.rows).bit_length() > self.n_cols):
            bad = next(i for i, r in enumerate(self.rows) if r < 0 or r.bit_length() > self.n_cols)
            raise InvalidInput(f"row {bad} has bits outside the logical width")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], n_cols: int | None = None) -> BitMatrix:
        rows = [list(r) for r in rows]
        if n_cols is None:
            n_cols = len(rows[0]) if rows else 0
        for i, r in enumerate(rows):
            if len(r) != n_cols:
                raise DimensionMismatch("ragged rows")
            for j, b in enumerate(r):
                if b not in (0, 1):
                    raise InvalidInput(f"entry ({i}, {j}) is {b!r}, not a bit")
        return cls.from_bit_array(np.array(rows, dtype=bool).reshape(len(rows), n_cols))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> BitMatrix:
        return cls(n_rows, n_cols, (0,) * n_rows)

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    def to_lists(self) -> list[list[int]]:
        return self.to_bit_array().tolist()

    def transpose(self) -> BitMatrix:
        # Packing a contiguous copy is faster than packing the strided view.
        columns = np.ascontiguousarray(self.to_bit_array().T)
        return BitMatrix(self.n_cols, self.n_rows, pack_rows(columns))

    def complement(self) -> BitMatrix:
        """Entrywise 1 - entry (bitwise NOT within the logical width)."""
        mask = (1 << self.n_cols) - 1
        return BitMatrix(self.n_rows, self.n_cols, tuple(r ^ mask for r in self.rows))

    def to_bit_array(self) -> np.ndarray:
        """Rows expanded to a (n_rows, n_cols) uint8 array of 0/1."""
        nbytes = (self.n_cols + 7) // 8
        if nbytes == 0:
            return np.zeros((self.n_rows, 0), dtype=np.uint8)
        buf = b"".join(r.to_bytes(nbytes, "little") for r in self.rows)
        a = np.frombuffer(buf, dtype=np.uint8).reshape(self.n_rows, nbytes)
        return np.unpackbits(a, axis=1, bitorder="little")[:, : self.n_cols]

    @classmethod
    def from_bit_array(cls, a: np.ndarray) -> BitMatrix:
        a = np.asarray(a)
        if a.size and (a.min() < 0 or a.max() > 1):
            raise InvalidInput("entries must be 0 or 1")
        return cls(a.shape[0], a.shape[1], pack_rows(a.astype(np.uint8, copy=False)))

    def __str__(self) -> str:
        return "\n".join("".join(map(str, row)) for row in self.to_lists())

