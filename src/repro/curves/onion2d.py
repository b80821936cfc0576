"""The two-dimensional onion curve (Section III-A of the paper).

The onion curve orders cells layer by layer: all cells of the outermost
ring ``S(1)`` first (counter-clockwise, starting at the origin corner and
walking along ``y = 0`` first), then the next ring ``S(2)``, and so on to
the centre.  The paper defines it by induction on the ring side ``j``:

* ``O_j(x, 0)       = x``
* ``O_j(j−1, y)     = j − 1 + y``
* ``O_j(x, j−1)     = 3j − 3 − x``
* ``O_j(0, y≥1)     = 4j − 4 − y``
* ``O_j(x, y)       = 4j − 4 + O_{j−2}(x−1, y−1)`` otherwise.

:class:`OnionCurve2D` evaluates the same bijection in O(1) per cell using
the layer-offset closed form (all complete rings strictly outside layer
``t`` hold ``side² − j²`` cells, where ``j`` is the side of ring ``t``),
and is vectorized with numpy.  The literal recursion is kept as
:func:`onion2d_index_recursive` and used as the reference in tests.

The same ring structure gives a rect's key runs without keying a cell
(:func:`onion2d_rect_runs`): the rect cuts each side of a ring in one
*arc* of consecutive keys, so its runs are those arcs in ring-then-side
order, joined where one ends on the key before the next begins.  The
rings lying wholly inside the rect are the curve's last keys and
collapse into one run, so only the rings the rect's border cuts are
visited.

The paper assumes an even side; this implementation also supports odd
sides (the innermost layer degenerates to a single cell), which the
inductive definition extends to naturally.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from ..errors import OutOfUniverseError
from ..geometry import Cell
from .base import SpaceFillingCurve


def onion2d_index_recursive(side: int, cell: Tuple[int, int]) -> int:
    """The paper's inductive definition of ``O_j``, verbatim (reference only).

    O(side) per call; use :class:`OnionCurve2D` for real work.
    """
    x, y = int(cell[0]), int(cell[1])
    j = int(side)
    if not (0 <= x < j and 0 <= y < j):
        raise OutOfUniverseError(f"cell {cell} outside side-{side} universe")
    offset = 0
    while True:
        if j == 1:
            return offset
        if y == 0:
            return offset + x
        if x == j - 1:
            return offset + j - 1 + y
        if y == j - 1:
            return offset + 3 * j - 3 - x
        if x == 0:
            return offset + 4 * j - 4 - y
        offset += 4 * j - 4
        x -= 1
        y -= 1
        j -= 2


def onion2d_index_array(x: np.ndarray, y: np.ndarray, side) -> np.ndarray:
    """Vectorized onion-curve keys; ``side`` may be a scalar or an array.

    The per-element ``side`` form is what lets the 3-D onion curve order
    each of its square faces by the 2-D onion curve of the face's own side
    length in a single numpy pass.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    s = np.asarray(side, dtype=np.int64)
    t = np.minimum.reduce([x + 1, s - x, y + 1, s - y])
    j = s - 2 * (t - 1)
    u = x - (t - 1)
    v = y - (t - 1)
    pos = np.where(
        v == 0,
        u,
        np.where(
            u == j - 1,
            j - 1 + v,
            np.where(v == j - 1, 3 * j - 3 - u, 4 * j - 4 - v),
        ),
    )
    return (s * s - j * j + pos).astype(np.int64)


def onion2d_point_array(keys: np.ndarray, side) -> np.ndarray:
    """Vectorized inverse of :func:`onion2d_index_array`.

    Returns an ``(n, 2)`` int64 array; ``side`` may be scalar or per-element.
    """
    keys = np.asarray(keys, dtype=np.int64)
    s = np.broadcast_to(np.asarray(side, dtype=np.int64), keys.shape)
    remaining = s * s - keys
    j = np.ceil(np.sqrt(remaining.astype(np.float64))).astype(np.int64)
    # Float sqrt can land one step off near perfect squares; fix up exactly,
    # then snap to the parity of the universe side.
    j = np.where(j * j < remaining, j + 1, j)
    j = np.where((j - 1) * (j - 1) >= remaining, j - 1, j)
    j = np.where((s - j) % 2 != 0, j + 1, j)
    t = (s - j) // 2 + 1
    pos = keys - (s * s - j * j)
    u = np.where(
        pos <= j - 1,
        pos,
        np.where(
            pos <= 2 * j - 2,
            j - 1,
            np.where(pos <= 3 * j - 3, 3 * j - 3 - pos, 0),
        ),
    )
    v = np.where(
        pos <= j - 1,
        0,
        np.where(
            pos <= 2 * j - 2,
            pos - (j - 1),
            np.where(pos <= 3 * j - 3, j - 1, 4 * j - 4 - pos),
        ),
    )
    u = np.where(j == 1, 0, u)
    v = np.where(j == 1, 0, v)
    return np.stack([u + t - 1, v + t - 1], axis=1).astype(np.int64)


def onion2d_rect_runs(
    side: int, lo: Tuple[int, int], hi: Tuple[int, int]
) -> List[Tuple[int, int]]:
    """Inclusive key runs of the rect ``[lo, hi]``, sorted, from its corners.

    Ring ``t`` is the border of the square ``[a, b]²`` (``a = t − 1``,
    ``b = side − t``, side ``j = b − a + 1``), keyed after the ``base =
    side² − j²`` cells of the outer rings: its bottom side holds ``base
    + x − a``, its right side ``base + j − 1 + y − a`` (``y ≥ a + 1``),
    its top side ``base + 3j − 3 − (x − a)`` (``x ≤ b − 1``) and its left
    side ``base + 4j − 4 − (y − a)`` (``a + 1 ≤ y ≤ b − 1``).  The rect
    cuts each side in one interval, an *arc* of consecutive keys, so
    walking the rings outward-in and their sides in key order emits the
    arcs sorted, and each arc is merged as it is emitted: one that starts
    on the key after the open run's end extends that run, any other
    closes it and opens the next.  Rings ``t ≥ max(x0+1, y0+1, side−x1,
    side−y1)`` lie wholly inside the rect and are one key interval
    running to the curve's last key, so the loop visits only the rings
    the rect's border cuts, once each: O(side) integer steps at most, no
    cell keyed, and no second pass.  The arithmetic stays in Python ints,
    so keys past 2**63 are exact.

    ``lo`` and ``hi`` must be the corners of a rect inside the universe;
    callers validate it (:func:`repro.core.runs.query_runs` does).
    """
    s = int(side)
    x0, y0 = int(lo[0]), int(lo[1])
    x1, y1 = int(hi[0]), int(hi[1])
    rings = (s + 1) // 2
    # The rect's outermost ring, the outermost ring wholly inside it
    # (none when full > rings), and the innermost ring it reaches (an
    # upper bound only when it holds a whole ring; the loop stops at
    # full then).
    first = min(x0, y0, s - 1 - x1, s - 1 - y1) + 1
    full = max(x0, y0, s - 1 - x1, s - 1 - y1) + 1
    last = min(x1 + 1, y1 + 1, s - x0, s - y0)
    square = s * s
    # The open run is [start, end].  No key is -1, so the placeholder
    # run opened here joins no arc; the first arc closes it, and it is
    # dropped on return.
    runs: List[Tuple[int, int]] = []
    start = end = -2
    # A cut ring has a <= x1, y1 and b >= x0, y0: the rect reaches its
    # square, so each test below only asks which sides it reaches.
    for t in range(first, min(full, last + 1)):
        a, b = t - 1, s - t
        j = b - a + 1
        # The key origin of the bottom side, base and a folded in: (x, a)
        # is keyed bottom + x.  The rect's extent on the ring's sides:
        # x in [xa, xb] along the bottom and top, y in [ya, yb] along the
        # right and left (the corners at y = a belong to the bottom).
        bottom = square - j * j - a
        xa = x0 if x0 > a else a
        xb = x1 if x1 < b else b
        ya = y0 if y0 > a else a + 1
        yb = y1 if y1 < b else b
        if y0 <= a:  # the bottom side: bottom + x
            key = bottom + xa
            if key != end + 1:
                runs.append((start, end))
                start = key
            end = bottom + xb
        if b <= x1 and ya <= yb:  # the right side: right + y
            right = bottom + j - 1
            key = right + ya
            if key != end + 1:
                runs.append((start, end))
                start = key
            end = right + yb
        if b <= y1:  # the top side: top − x, for x <= b − 1
            xb = xb if xb < b else b - 1
            if xa <= xb:
                top = bottom + 3 * j - 3 + 2 * a
                key = top - xb
                if key != end + 1:
                    runs.append((start, end))
                    start = key
                end = top - xa
        if x0 <= a:  # the left side: left − y, for y <= b − 1
            yb = yb if yb < b else b - 1
            if ya <= yb:
                left = bottom + 4 * j - 4 + 2 * a
                key = left - yb
                if key != end + 1:
                    runs.append((start, end))
                    start = key
                end = left - ya
    if full <= rings:
        j = s - 2 * (full - 1)
        key = square - j * j
        if key != end + 1:
            runs.append((start, end))
            start = key
        end = square - 1
    runs.append((start, end))
    del runs[0]
    return runs


def _ring_position(u: int, v: int, j: int) -> int:
    """Position of local cell ``(u, v)`` along the side-``j`` ring perimeter."""
    if j == 1:
        return 0
    if v == 0:
        return u
    if u == j - 1:
        return j - 1 + v
    if v == j - 1:
        return 3 * j - 3 - u
    return 4 * j - 4 - v


def _ring_cell(pos: int, j: int) -> Tuple[int, int]:
    """Inverse of :func:`_ring_position`."""
    if j == 1:
        return 0, 0
    if pos <= j - 1:
        return pos, 0
    if pos <= 2 * j - 2:
        return j - 1, pos - (j - 1)
    if pos <= 3 * j - 3:
        return 3 * j - 3 - pos, j - 1
    return 0, 4 * j - 4 - pos


class OnionCurve2D(SpaceFillingCurve):
    """Closed-form two-dimensional onion curve."""

    is_continuous = True

    def __init__(self, side: int, dim: int = 2):
        if dim != 2:
            raise OutOfUniverseError(f"OnionCurve2D is 2-d only, got dim={dim}")
        super().__init__(side, 2)

    @property
    def name(self) -> str:
        return "onion"

    def layer_of(self, cell: Cell) -> int:
        """Onion layer (1-based) of ``cell``: the paper's ``∇(α)``."""
        x, y = cell
        s = self._side
        return min(x + 1, s - x, y + 1, s - y)

    def _index_impl(self, cell: Cell) -> int:
        x, y = cell
        s = self._side
        t = min(x + 1, s - x, y + 1, s - y)
        j = s - 2 * (t - 1)
        outside = s * s - j * j
        return outside + _ring_position(x - (t - 1), y - (t - 1), j)

    def _point_impl(self, key: int) -> Cell:
        s = self._side
        remaining = s * s - key
        j = math.isqrt(remaining - 1) + 1  # ceil(sqrt(remaining))
        if (s - j) % 2:
            j += 1
        t = (s - j) // 2 + 1
        pos = key - (s * s - j * j)
        u, v = _ring_cell(pos, j)
        return (u + t - 1, v + t - 1)

    # ------------------------------------------------------------------
    # Vectorized kernels
    # ------------------------------------------------------------------
    def index_many(self, cells: np.ndarray) -> np.ndarray:
        cells = self._check_cells_array(cells)
        return onion2d_index_array(cells[:, 0], cells[:, 1], self._side)

    def point_many(self, keys: np.ndarray) -> np.ndarray:
        keys = self._check_keys_array(keys)
        return onion2d_point_array(keys, self._side)
