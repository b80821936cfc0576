"""The Z (Morton) curve: plain bit interleaving of the coordinates.

Orenstein and Merrett's Z curve assigns each cell the key formed by
interleaving the bits of its coordinates.  It is *not* continuous
(consecutive keys can be far apart — the big diagonal jumps of the "Z"
shape), but every aligned power-of-two block is a contiguous key range,
which :mod:`repro.core.prefix_ranges` exploits for fast cluster counting.
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
    interleave,
    interleave_many,
)


class ZOrderCurve(SpaceFillingCurve):
    """Morton order on a power-of-two grid in any dimension >= 1."""

    is_continuous = False
    is_prefix_contiguous = True
    _VECTOR_KEY_BITS = MAX_VECTOR_BITS

    def __init__(self, side: int, dim: int):
        super().__init__(side, dim)
        if side & (side - 1) or side < 2:
            raise InvalidUniverseError(
                f"Z curve needs a power-of-two side >= 2, got {side}"
            )
        self._bits = bits_for_side(side)

    @property
    def name(self) -> str:
        return "zorder"

    @property
    def bits(self) -> int:
        """Bits per coordinate (``log2(side)``)."""
        return self._bits

    def _index_impl(self, cell: Cell) -> int:
        return interleave(cell, self._bits)

    def _point_impl(self, key: int) -> Cell:
        return tuple(deinterleave(key, self._dim, self._bits))

    def index_many(self, cells: np.ndarray) -> np.ndarray:
        return interleave_many(self._check_cells_array(cells), self._bits)

    def point_many(self, keys: np.ndarray) -> np.ndarray:
        return deinterleave_many(self._check_keys_array(keys), self._dim, self._bits)

    def block_key_range(self, origin, level: int):
        """Key range ``(start, size)`` of the aligned block at ``origin``.

        The block has side ``2**level`` per axis; its Morton keys share the
        interleaved prefix of the origin, so the range starts at the
        origin's key and spans ``2**(level·dim)`` keys.
        """
        size = 1 << (level * self._dim)
        prefix = interleave([int(c) >> level for c in origin], self._bits - level)
        return prefix * size, size
