"""d-dimensional Hilbert curve via Skilling's transpose algorithm.

Reference: John Skilling, "Programming the Hilbert curve", AIP Conference
Proceedings 707 (2004).  The algorithm converts between axis coordinates
and the "transpose" form of the Hilbert index (the index's bits dealt
round-robin across ``dim`` words) with O(dim · bits) bit operations and no
lookup tables, which makes it straightforward to vectorize with numpy.

The curve requires a power-of-two side.  It is continuous (each step moves
to a neighboring cell) and starts at the origin cell.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import InvalidUniverseError
from ..geometry import Cell
from .base import SpaceFillingCurve
from ._bits import MAX_VECTOR_BITS, bits_for_side


def _axes_to_transpose(x: List[int], bits: int, dim: int) -> List[int]:
    """In-place coords -> transposed Hilbert index (Skilling, inverse pass)."""
    m = 1 << (bits - 1)
    q = m
    while q > 1:
        p = q - 1
        for i in range(dim):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q >>= 1
    for i in range(1, dim):
        x[i] ^= x[i - 1]
    t = 0
    q = m
    while q > 1:
        if x[dim - 1] & q:
            t ^= q - 1
        q >>= 1
    for i in range(dim):
        x[i] ^= t
    return x


def _transpose_to_axes(x: List[int], bits: int, dim: int) -> List[int]:
    """In-place transposed Hilbert index -> coords (Skilling, forward pass)."""
    n = 2 << (bits - 1)
    t = x[dim - 1] >> 1
    for i in range(dim - 1, 0, -1):
        x[i] ^= x[i - 1]
    x[0] ^= t
    q = 2
    while q != n:
        p = q - 1
        for i in range(dim - 1, -1, -1):
            if x[i] & q:
                x[0] ^= p
            else:
                t = (x[0] ^ x[i]) & p
                x[0] ^= t
                x[i] ^= t
        q <<= 1
    return x


def _pack_transpose(x: List[int], bits: int, dim: int) -> int:
    """Interleave transpose words into the scalar Hilbert key.

    Word ``x[0]`` supplies the most significant bit of each ``dim``-bit
    group of the key.
    """
    key = 0
    for b in range(bits):
        for i in range(dim):
            key |= ((x[i] >> b) & 1) << (b * dim + (dim - 1 - i))
    return key


def _unpack_transpose(key: int, bits: int, dim: int) -> List[int]:
    """Inverse of :func:`_pack_transpose`."""
    x = [0] * dim
    for b in range(bits):
        for i in range(dim):
            x[i] |= ((key >> (b * dim + (dim - 1 - i))) & 1) << b
    return x


class HilbertCurve(SpaceFillingCurve):
    """The Hilbert curve on a power-of-two grid in any dimension >= 1."""

    is_continuous = True
    _VECTOR_KEY_BITS = MAX_VECTOR_BITS

    def __init__(self, side: int, dim: int):
        super().__init__(side, dim)
        if side & (side - 1) or side < 2:
            raise InvalidUniverseError(
                f"Hilbert curve needs a power-of-two side >= 2, got {side}"
            )
        self._bits = bits_for_side(side)

    @property
    def name(self) -> str:
        return "hilbert"

    @property
    def bits(self) -> int:
        """Bits per coordinate (``log2(side)``)."""
        return self._bits

    def _index_impl(self, cell: Cell) -> int:
        x = _axes_to_transpose(list(cell), self._bits, self._dim)
        return _pack_transpose(x, self._bits, self._dim)

    def _point_impl(self, key: int) -> Cell:
        x = _unpack_transpose(key, self._bits, self._dim)
        return tuple(_transpose_to_axes(x, self._bits, self._dim))

    # ------------------------------------------------------------------
    # Vectorized kernels
    # ------------------------------------------------------------------
    def index_many(self, cells: np.ndarray) -> np.ndarray:
        cells = self._check_cells_array(cells)
        dim, bits = self._dim, self._bits
        x = cells.astype(np.int64).copy()
        q = 1 << (bits - 1)
        while q > 1:
            p = q - 1
            for i in range(dim):
                hit = (x[:, i] & q) != 0
                if i == 0:
                    x[:, 0] = np.where(hit, x[:, 0] ^ p, x[:, 0])
                else:
                    t = np.where(hit, 0, (x[:, 0] ^ x[:, i]) & p)
                    x[:, 0] = np.where(hit, x[:, 0] ^ p, x[:, 0] ^ t)
                    x[:, i] ^= t
            q >>= 1
        for i in range(1, dim):
            x[:, i] ^= x[:, i - 1]
        t = np.zeros(x.shape[0], dtype=np.int64)
        q = 1 << (bits - 1)
        while q > 1:
            t ^= np.where((x[:, dim - 1] & q) != 0, q - 1, 0)
            q >>= 1
        x ^= t[:, None]
        keys = np.zeros(x.shape[0], dtype=np.int64)
        for b in range(bits):
            for i in range(dim):
                keys |= ((x[:, i] >> b) & 1) << (b * dim + (dim - 1 - i))
        return keys

    def point_many(self, keys: np.ndarray) -> np.ndarray:
        keys = self._check_keys_array(keys)
        dim, bits = self._dim, self._bits
        x = np.zeros((keys.shape[0], dim), dtype=np.int64)
        for b in range(bits):
            for i in range(dim):
                x[:, i] |= ((keys >> (b * dim + (dim - 1 - i))) & 1) << b
        n = 2 << (bits - 1)
        t = x[:, dim - 1] >> 1
        for i in range(dim - 1, 0, -1):
            x[:, i] ^= x[:, i - 1]
        x[:, 0] ^= t
        q = 2
        while q != n:
            p = q - 1
            for i in range(dim - 1, -1, -1):
                hit = (x[:, i] & q) != 0
                if i == 0:
                    x[:, 0] = np.where(hit, x[:, 0] ^ p, x[:, 0])
                else:
                    tt = np.where(hit, 0, (x[:, 0] ^ x[:, i]) & p)
                    x[:, 0] = np.where(hit, x[:, 0] ^ p, x[:, 0] ^ tt)
                    x[:, i] ^= tt
            q <<= 1
        return x
