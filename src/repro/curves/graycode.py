"""The Gray-code curve (Faloutsos 1986/1988).

The cell whose interleaved coordinate bits form the word ``w`` is visited
at position ``gray⁻¹(w)``, i.e. the curve enumerates interleaved words in
binary-reflected Gray-code order.  Compared to the Z curve, consecutive
cells differ in exactly one interleaved bit, which improves locality but
still does not make the curve continuous in grid space.

Like the Z curve it is *prefix contiguous*: the top bits of ``gray(k)``
depend only on the top bits of ``k``, so every aligned power-of-two block
of cells occupies a contiguous key range.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidUniverseError
from ..geometry import Cell
from .base import SpaceFillingCurve
from ._bits import (
    MAX_VECTOR_BITS,
    bits_for_side,
    deinterleave,
    deinterleave_many,
    gray_decode,
    gray_decode_many,
    gray_encode,
    gray_encode_many,
    interleave,
    interleave_many,
)


class GrayCodeCurve(SpaceFillingCurve):
    """Gray-code order on a power-of-two grid in any dimension >= 1."""

    is_continuous = False
    is_prefix_contiguous = True
    _VECTOR_KEY_BITS = MAX_VECTOR_BITS

    def __init__(self, side: int, dim: int):
        super().__init__(side, dim)
        if side & (side - 1) or side < 2:
            raise InvalidUniverseError(
                f"Gray-code curve needs a power-of-two side >= 2, got {side}"
            )
        self._bits = bits_for_side(side)

    @property
    def name(self) -> str:
        return "gray"

    @property
    def bits(self) -> int:
        """Bits per coordinate (``log2(side)``)."""
        return self._bits

    def _index_impl(self, cell: Cell) -> int:
        return gray_decode(interleave(cell, self._bits))

    def _point_impl(self, key: int) -> Cell:
        return tuple(deinterleave(gray_encode(key), self._dim, self._bits))

    def index_many(self, cells: np.ndarray) -> np.ndarray:
        words = interleave_many(self._check_cells_array(cells), self._bits)
        return gray_decode_many(words, self._bits * self._dim)

    def point_many(self, keys: np.ndarray) -> np.ndarray:
        words = gray_encode_many(self._check_keys_array(keys))
        return deinterleave_many(words, self._dim, self._bits)

    def block_key_range(self, origin, level: int):
        """Key range ``(start, size)`` of the aligned block at ``origin``.

        The block's cells share an interleaved-word prefix ``P``; since the
        top bits of ``gray(k)`` are the Gray code of the top bits of ``k``,
        the keys of the block are exactly those whose top bits equal
        ``gray⁻¹(P)`` — a contiguous range.
        """
        size = 1 << (level * self._dim)
        prefix = interleave([int(c) >> level for c in origin], self._bits - level)
        return gray_decode(prefix) * size, size
