"""The three-dimensional onion curve (Section VI-A of the paper).

The 3-D onion curve orders the layers ``S(1), S(2), …, S(m)`` of the
``2m × 2m × 2m`` universe from the boundary inward.  Each layer ``S(t)``
(the boundary shell of the cube ``[t−1, 2m−t]³``) is split into the ten
pieces ``S1(t) … S10(t)`` of the paper:

* ``S1``/``S2`` — the two full square faces ``i = t−1`` and ``i = 2m−t``;
* ``S3``, ``S5``, ``S6``, ``S8`` — the four edge lines parallel to axis
  ``i`` at the extremes of ``(j, k)``;
* ``S4``/``S7`` — the interiors of the side faces ``j = t−1`` / ``j = 2m−t``;
* ``S9``/``S10`` — the interiors of the side faces ``k = t−1`` / ``k = 2m−t``.

Square pieces are ordered internally by the 2-D onion curve of the piece's
own side length; line pieces in natural coordinate order.  The key of a
cell is ``K1(t) + K2(t, g) + r`` exactly as in the paper (``K1`` counts
the outer layers — it telescopes to ``side³ − j³`` — and ``K2`` counts the
earlier pieces of the same layer).

The paper notes that the order of the ten pieces within a layer is
immaterial to the clustering analysis ("we can actually adopt any
permutation on that"); :class:`OnionCurve3D` accepts a ``face_order``
permutation so this can be tested as an ablation.

The curve is a bijection but (unlike its 2-D counterpart) it is *not*
continuous: there is a bounded number of jumps at piece boundaries, at
most ten per layer.  :meth:`OnionCurve3D.discontinuities` enumerates them
in O(side) time, which the clustering machinery uses to keep O(surface)
cluster counting exact.
"""

from __future__ import annotations

from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from ..errors import InvalidUniverseError, OutOfUniverseError
from ..geometry import Cell
from .base import SpaceFillingCurve
from .onion2d import OnionCurve2D, onion2d_index_array, onion2d_point_array

#: The paper's piece order within a layer.
DEFAULT_FACE_ORDER: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)

#: Pieces that are squares ordered by the 2-D onion curve of side ``j``.
_FULL_FACES = (1, 2)
#: Pieces that are lines of length ``j − 2`` along axis ``i``.
_LINES = (3, 5, 6, 8)
#: Pieces that are squares of side ``j − 2``.
_INNER_FACES = (4, 7, 9, 10)


def _outer_cells(s: int, j: np.ndarray) -> np.ndarray:
    """``s**3 - j**3``, the cells outside the layer of side ``j``, as
    ``(s - j) * (s*s + s*j + j*j)``: no term passes int64 where the
    difference fits it, though ``s**3`` is ``2**63`` at side ``2**21``."""
    return (s - j) * (s * s + s * j + j * j)


class OnionCurve3D(SpaceFillingCurve):
    """Closed-form three-dimensional onion curve on an even-sided cube."""

    is_continuous = False
    has_sparse_discontinuities = True

    def __init__(
        self,
        side: int,
        dim: int = 3,
        face_order: Sequence[int] = DEFAULT_FACE_ORDER,
    ):
        if dim != 3:
            raise OutOfUniverseError(f"OnionCurve3D is 3-d only, got dim={dim}")
        super().__init__(side, 3)
        if side % 2:
            raise InvalidUniverseError(
                f"the 3-d onion curve needs an even side, got {side}"
            )
        order = tuple(int(g) for g in face_order)
        if sorted(order) != list(range(1, 11)):
            raise InvalidUniverseError(
                f"face_order must be a permutation of 1..10, got {order}"
            )
        self._order = order
        self._onion2d_cache: Dict[int, OnionCurve2D] = {}

    @property
    def name(self) -> str:
        return "onion"

    def _identity(self):
        # face_order changes the bijection; caches must not conflate
        # differently-ordered instances.
        return super()._identity() + (self._order,)

    @property
    def face_order(self) -> Tuple[int, ...]:
        """The configured within-layer piece permutation."""
        return self._order

    # ------------------------------------------------------------------
    # Layer bookkeeping
    # ------------------------------------------------------------------
    def layer_of(self, cell: Cell) -> int:
        """Onion layer (1-based) of ``cell``: the paper's ``∇(α)``."""
        s = self._side
        return min(min(c + 1, s - c) for c in cell)

    def _piece_size(self, j: int, g: int) -> int:
        """``|Sg(t)|`` for a layer whose outer cube has side ``j``."""
        if g in _FULL_FACES:
            return j * j
        inner = j - 2
        if inner <= 0:
            return 0
        if g in _LINES:
            return inner
        return inner * inner

    def _onion2d(self, j: int) -> OnionCurve2D:
        curve = self._onion2d_cache.get(j)
        if curve is None:
            curve = OnionCurve2D(j)
            self._onion2d_cache[j] = curve
        return curve

    def _classify(self, cell: Cell, t: int) -> Tuple[int, int]:
        """Return ``(g, r)``: the piece id and the rank within the piece."""
        x, y, z = cell
        lo = t - 1
        hi = self._side - t
        j = hi - lo + 1
        if x == lo:
            return 1, self._onion2d(j).index((y - lo, z - lo))
        if x == hi:
            return 2, self._onion2d(j).index((y - lo, z - lo))
        if y == lo:
            if z == lo:
                return 3, x - lo - 1
            if z == hi:
                return 5, x - lo - 1
            return 4, self._onion2d(j - 2).index((x - lo - 1, z - lo - 1))
        if y == hi:
            if z == lo:
                return 6, x - lo - 1
            if z == hi:
                return 8, x - lo - 1
            return 7, self._onion2d(j - 2).index((x - lo - 1, z - lo - 1))
        if z == lo:
            return 9, self._onion2d(j - 2).index((x - lo - 1, y - lo - 1))
        return 10, self._onion2d(j - 2).index((x - lo - 1, y - lo - 1))

    # ------------------------------------------------------------------
    # Scalar bijection
    # ------------------------------------------------------------------
    def _index_impl(self, cell: Cell) -> int:
        s = self._side
        t = self.layer_of(cell)
        j = s - 2 * (t - 1)
        key = s**3 - j**3  # K1(t): all cells of the outer layers
        g, r = self._classify(cell, t)
        for piece in self._order:
            if piece == g:
                break
            key += self._piece_size(j, piece)
        return key + r

    def _point_impl(self, key: int) -> Cell:
        s = self._side
        remaining = s**3 - key
        j = round(remaining ** (1.0 / 3.0))
        while j**3 < remaining:
            j += 1
        while j > 1 and (j - 1) ** 3 >= remaining:
            j -= 1
        if (s - j) % 2:
            j += 1
        t = (s - j) // 2 + 1
        lo = t - 1
        hi = s - t
        pos = key - (s**3 - j**3)
        for g in self._order:
            size = self._piece_size(j, g)
            if pos < size:
                break
            pos -= size
        else:  # pragma: no cover - unreachable for valid keys
            raise OutOfUniverseError(f"key {key} not located in any piece")
        if g in _FULL_FACES:
            u, v = self._onion2d(j).point(pos)
            x = lo if g == 1 else hi
            return (x, lo + u, lo + v)
        if g in _LINES:
            x = lo + 1 + pos
            y = lo if g in (3, 5) else hi
            z = lo if g in (3, 6) else hi
            return (x, y, z)
        u, v = self._onion2d(j - 2).point(pos)
        if g == 4:
            return (lo + 1 + u, lo, lo + 1 + v)
        if g == 7:
            return (lo + 1 + u, hi, lo + 1 + v)
        if g == 9:
            return (lo + 1 + u, lo + 1 + v, lo)
        return (lo + 1 + u, lo + 1 + v, hi)

    # ------------------------------------------------------------------
    # Vectorized kernels
    # ------------------------------------------------------------------
    def index_many(self, cells: np.ndarray) -> np.ndarray:
        cells = self._check_cells_array(cells)
        s = self._side
        x, y, z = cells[:, 0], cells[:, 1], cells[:, 2]
        t = np.minimum.reduce([x + 1, s - x, y + 1, s - y, z + 1, s - z])
        j = s - 2 * (t - 1)
        lo = t - 1
        hi = s - t
        inner = np.maximum(j - 2, 1)  # guarded side for inner-face kernels

        conds = [
            x == lo,
            x == hi,
            (y == lo) & (z == lo),
            (y == lo) & (z == hi),
            y == lo,
            (y == hi) & (z == lo),
            (y == hi) & (z == hi),
            y == hi,
            z == lo,
            z == hi,
        ]
        gvals = [1, 2, 3, 5, 4, 6, 8, 7, 9, 10]
        g = np.select(conds, gvals, default=0)

        clip_hi = inner - 1
        xi = np.clip(x - lo - 1, 0, clip_hi)
        yi = np.clip(y - lo - 1, 0, clip_hi)
        zi = np.clip(z - lo - 1, 0, clip_hi)
        r_face = onion2d_index_array(y - lo, z - lo, j)
        r_line = x - lo - 1
        r_xz = onion2d_index_array(xi, zi, inner)
        r_xy = onion2d_index_array(xi, yi, inner)
        r = np.select(
            [np.isin(g, _FULL_FACES), np.isin(g, _LINES), np.isin(g, (4, 7))],
            [r_face, r_line, r_xz],
            default=r_xy,
        )

        sizes = self._piece_sizes_arrays(j)
        offsets = self._offsets_before(sizes)
        off = np.select([g == gv for gv in range(1, 11)], [offsets[gv] for gv in range(1, 11)])
        return (_outer_cells(s, j) + off + r).astype(np.int64)

    def _piece_sizes_arrays(self, j: np.ndarray) -> Dict[int, np.ndarray]:
        """Per-cell piece sizes, keyed by piece id, for layer sides ``j``."""
        face = j * j
        inner = np.maximum(j - 2, 0)
        line = inner
        inner_face = inner * inner
        sizes: Dict[int, np.ndarray] = {}
        for g in range(1, 11):
            if g in _FULL_FACES:
                sizes[g] = face
            elif g in _LINES:
                sizes[g] = line
            else:
                sizes[g] = inner_face
        return sizes

    def _offsets_before(self, sizes: Dict[int, np.ndarray]) -> Dict[int, np.ndarray]:
        """Cumulative piece offsets (``K2``) under the configured order."""
        running = np.zeros_like(sizes[1])
        offsets: Dict[int, np.ndarray] = {}
        for g in self._order:
            offsets[g] = running
            running = running + sizes[g]
        return offsets

    def point_many(self, keys: np.ndarray) -> np.ndarray:
        keys = self._check_keys_array(keys)
        s = self._side
        # j is the least side whose cube reaches s**3 - key: the layer
        # holding the key, before the parity fix.  A key is below
        # s**3 - j**3 exactly when j**3 < s**3 - key.  s**3 - 1 - key
        # fits int64 where every key does.
        remaining = (s**3 - 1 - keys).astype(np.float64) + 1
        j = np.round(np.cbrt(remaining)).astype(np.int64)
        for _ in range(2):  # exact fix-up of the float cube root
            j = np.where(keys < _outer_cells(s, j), j + 1, j)
            j = np.where((j > 1) & (keys >= _outer_cells(s, j - 1)), j - 1, j)
        j = np.where((s - j) % 2 != 0, j + 1, j)
        t = (s - j) // 2 + 1
        lo = t - 1
        hi = s - t
        pos = keys - _outer_cells(s, j)

        sizes = self._piece_sizes_arrays(j)
        g = np.zeros(keys.shape[0], dtype=np.int64)
        r = np.zeros(keys.shape[0], dtype=np.int64)
        running = np.zeros_like(pos)
        for piece in self._order:
            size = sizes[piece]
            mask = (g == 0) & (pos < running + size)
            g = np.where(mask, piece, g)
            r = np.where(mask, pos - running, r)
            running = running + size

        inner = np.maximum(j - 2, 1)
        uv_face = onion2d_point_array(np.clip(r, 0, j * j - 1), j)
        uv_inner = onion2d_point_array(np.clip(r, 0, inner * inner - 1), inner)

        x = np.empty_like(g)
        y = np.empty_like(g)
        z = np.empty_like(g)

        full = np.isin(g, _FULL_FACES)
        x = np.where(g == 1, lo, np.where(g == 2, hi, x))
        y = np.where(full, lo + uv_face[:, 0], y)
        z = np.where(full, lo + uv_face[:, 1], z)

        line = np.isin(g, _LINES)
        x = np.where(line, lo + 1 + r, x)
        y = np.where(line, np.where(np.isin(g, (3, 5)), lo, hi), y)
        z = np.where(line, np.where(np.isin(g, (3, 6)), lo, hi), z)

        side_face = np.isin(g, (4, 7))
        x = np.where(side_face, lo + 1 + uv_inner[:, 0], x)
        y = np.where(side_face, np.where(g == 4, lo, hi), y)
        z = np.where(side_face, lo + 1 + uv_inner[:, 1], z)

        bottom_top = np.isin(g, (9, 10))
        x = np.where(bottom_top, lo + 1 + uv_inner[:, 0], x)
        y = np.where(bottom_top, lo + 1 + uv_inner[:, 1], y)
        z = np.where(bottom_top, np.where(g == 9, lo, hi), z)

        return np.stack([x, y, z], axis=1).astype(np.int64)

    # ------------------------------------------------------------------
    # Discontinuity enumeration
    # ------------------------------------------------------------------
    def discontinuities(self) -> Iterator[Cell]:
        """Yield the jump cells: first cells of pieces whose predecessor
        along the curve is not a grid neighbor.

        There are at most ten pieces per layer and ``side/2`` layers, so
        this runs in O(side) point evaluations.
        """
        s = self._side
        m = s // 2
        for t in range(1, m + 1):
            j = s - 2 * (t - 1)
            base = s**3 - j**3
            offset = 0
            for g in self._order:
                size = self._piece_size(j, g)
                if size == 0:
                    continue
                key = base + offset
                offset += size
                if key == 0:
                    continue
                cell = self._point_impl(key)
                prev = self._point_impl(key - 1)
                if sum(abs(a - b) for a, b in zip(cell, prev)) != 1:
                    yield cell
