"""Abstract interface shared by all space filling curves.

An SFC over a ``d``-dimensional grid of side ``s`` is a bijection between
the ``s**d`` cells and the keys ``{0, …, s**d − 1}`` (the paper's ``π``).
Concrete curves implement the scalar :meth:`SpaceFillingCurve._index_impl`
and :meth:`SpaceFillingCurve._point_impl`; the base class provides
validation, iteration, curve edges and default (loop-based) vectorized
code paths which subclasses override with true numpy kernels where it
matters for performance.
"""

from __future__ import annotations

import abc
from typing import Iterator, Sequence, Tuple

import numpy as np

from ..errors import InvalidUniverseError, OutOfUniverseError
from ..geometry import Cell, check_cell, validate_dim, validate_side


class SpaceFillingCurve(abc.ABC):
    """A bijection between grid cells and 1-D keys.

    Parameters
    ----------
    side:
        Number of cells along every axis of the universe.
    dim:
        Number of dimensions.
    """

    #: True when consecutive keys always map to neighboring cells
    #: (Definition 1 in the paper).  The Hilbert, onion and snake curves are
    #: continuous; the Z and Gray-code curves are not.
    is_continuous: bool = False

    #: True when every aligned power-of-two block of cells occupies a
    #: contiguous key range (quadtree-prefix property).  Holds for the Z and
    #: Gray-code curves and enables O(perimeter·log n) cluster counting.
    is_prefix_contiguous: bool = False

    #: True when :meth:`discontinuities` enumerates the curve's non-unit
    #: steps in time much smaller than O(n).  Continuous curves are trivially
    #: sparse (no jumps); the 3-D onion curve has O(side) analytic jumps.
    #: The boundary-shell clustering algorithm needs this capability.
    has_sparse_discontinuities: bool = False

    #: The widest key, in bits, that the vectorized kernels compute
    #: exactly.  They compute in int64, so the default is 63: every key
    #: that fits.  A curve whose kernels hold fewer key bits states its
    #: width here (see :meth:`_vector_exact`).
    _VECTOR_KEY_BITS: int = 63

    def __init__(self, side: int, dim: int):
        self._side = validate_side(side)
        self._dim = validate_dim(dim)

    # ------------------------------------------------------------------
    # Identity and sizing
    # ------------------------------------------------------------------
    @property
    def side(self) -> int:
        """Cells per axis."""
        return self._side

    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return self._dim

    @property
    def size(self) -> int:
        """Total number of cells ``n = side**dim``."""
        return self._side**self._dim

    @property
    def name(self) -> str:
        """Short human-readable curve name (registry key)."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{type(self).__name__}(side={self._side}, dim={self._dim})"

    def _identity(self) -> Tuple:
        """The state that determines the cell↔key bijection.

        Equality, hashing — and therefore every cache keyed by a curve
        (plan cache, displacement-stencil cache) — derive from this.
        Subclasses with extra configuration that changes the mapping
        (e.g. the 3-d onion's ``face_order``) MUST extend the tuple.
        """
        return (type(self), self._side, self._dim)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpaceFillingCurve)
            and self._identity() == other._identity()
        )

    def __hash__(self) -> int:
        return hash(self._identity())

    # ------------------------------------------------------------------
    # Core bijection
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _index_impl(self, cell: Cell) -> int:
        """Map a validated cell to its key."""

    @abc.abstractmethod
    def _point_impl(self, key: int) -> Cell:
        """Map a validated key to its cell."""

    def index(self, cell: Sequence[int]) -> int:
        """Key of ``cell`` under this curve (the paper's ``π(cell)``)."""
        return self._index_impl(check_cell(cell, self._side, self._dim))

    def point(self, key: int) -> Cell:
        """Cell holding ``key`` under this curve (the paper's ``π⁻¹(key)``)."""
        key = int(key)
        if not 0 <= key < self.size:
            raise OutOfUniverseError(f"key {key} outside [0, {self.size})")
        return self._point_impl(key)

    # ------------------------------------------------------------------
    # Vectorized code paths (subclasses override with numpy kernels)
    # ------------------------------------------------------------------
    def index_many(self, cells: np.ndarray) -> np.ndarray:
        """Keys for an ``(n, dim)`` array of cells, as int64.

        The base implementation loops; performance-critical curves override
        it with a true vectorized kernel.  Inputs are validated in bulk.
        """
        cells = self._check_cells_array(cells)
        return np.fromiter(
            (self._index_impl(tuple(int(v) for v in row)) for row in cells),
            dtype=np.int64,
            count=cells.shape[0],
        )

    def point_many(self, keys: np.ndarray) -> np.ndarray:
        """Cells for an array of keys, as an ``(n, dim)`` int64 array."""
        keys = self._check_keys_array(keys)
        out = np.empty((keys.shape[0], self._dim), dtype=np.int64)
        for i, key in enumerate(keys):
            out[i] = self._point_impl(int(key))
        return out

    def keys_of(self, cells: Sequence[Sequence[int]]) -> np.ndarray:
        """Keys for a sequence (or ``(n, dim)`` array) of cells, exact in
        every universe: one :meth:`index_many` call where the kernels key
        the universe exactly (:meth:`_vector_exact`), else :meth:`index`
        per cell, as Python ints in an ``object`` array.  What keys a
        store's records or a query's cells calls this, so it serves a
        universe the kernels refuse."""
        if self._vector_exact():
            return self.index_many(np.asarray(cells, dtype=np.int64))
        return np.array([self.index(cell) for cell in cells], dtype=object)

    def cells_of(self, keys: Sequence[int]) -> np.ndarray:
        """Cells for a sequence of keys, as an ``(n, dim)`` int64 array,
        exact in every universe: :meth:`point_many`, or :meth:`point` per
        key where the kernels refuse the universe (see :meth:`keys_of`)."""
        if self._vector_exact():
            return self.point_many(keys)
        cells = [self.point(key) for key in keys]
        return np.asarray(cells, dtype=np.int64).reshape(len(cells), self._dim)

    def _vector_exact(self) -> bool:
        """True when the vectorized kernels key this universe exactly:
        its largest key, ``size − 1``, has at most
        :attr:`_VECTOR_KEY_BITS` bits.  The one statement of where the
        kernels stop: they refuse past it, and :meth:`keys_of` and
        :meth:`cells_of` take the scalar kernels there."""
        return (self.size - 1).bit_length() <= self._VECTOR_KEY_BITS

    def _check_vector_universe(self) -> None:
        """Refuse a universe the vectorized kernels do not key exactly
        (:meth:`_vector_exact`): a numpy kernel would wrap its keys, or
        fail part-way, where the scalar :meth:`index` and :meth:`point`
        stay exact.  Every vectorized kernel validates its input through
        :meth:`_check_cells_array` or :meth:`_check_keys_array`, which
        call this first, so none keys anything first."""
        if not self._vector_exact():
            raise InvalidUniverseError(
                f"{self!r}: keys up to {self.size - 1} need "
                f"{(self.size - 1).bit_length()} bits, and the vectorized "
                f"kernels key at most {self._VECTOR_KEY_BITS}"
            )

    def _check_cells_array(self, cells: np.ndarray) -> np.ndarray:
        self._check_vector_universe()
        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != self._dim:
            raise OutOfUniverseError(
                f"expected (n, {self._dim}) cell array, got shape {cells.shape}"
            )
        if cells.size and (cells.min() < 0 or cells.max() >= self._side):
            raise OutOfUniverseError("cell array has coordinates outside the universe")
        return cells

    def _check_keys_array(self, keys: np.ndarray) -> np.ndarray:
        self._check_vector_universe()
        keys = np.asarray(keys, dtype=np.int64).ravel()
        if keys.size and (keys.min() < 0 or keys.max() >= self.size):
            raise OutOfUniverseError("key array has keys outside the universe")
        return keys

    # ------------------------------------------------------------------
    # Traversal helpers
    # ------------------------------------------------------------------
    @property
    def first_cell(self) -> Cell:
        """The cell with key 0 (``π_s`` in the paper), cached per instance."""
        cached = self.__dict__.get("_first_cell")
        if cached is None:
            cached = self.__dict__["_first_cell"] = self.point(0)
        return cached

    @property
    def last_cell(self) -> Cell:
        """The cell with key ``n − 1`` (``π_e``), cached per instance."""
        cached = self.__dict__.get("_last_cell")
        if cached is None:
            cached = self.__dict__["_last_cell"] = self.point(self.size - 1)
        return cached

    def jump_cells(self) -> np.ndarray:
        """The curve's discontinuity cells as a cached ``(k, dim)`` array.

        Materializes :meth:`discontinuities` exactly once per instance;
        the boundary-shell clustering and run construction consult this
        on every query, so rebuilding the list per query (an O(n) walk
        for curves without sparse jump sets) would dominate their cost.
        """
        cached = self.__dict__.get("_jump_cells")
        if cached is None:
            cells = list(self.discontinuities())
            cached = np.asarray(cells, dtype=np.int64).reshape(len(cells), self._dim)
            self.__dict__["_jump_cells"] = cached
        return cached

    def jump_predecessor_cells(self) -> np.ndarray:
        """Cells immediately before each jump cell in key order, cached.

        Run *ends* can hide at the key just before a jump; run
        construction needs both arrays, so they are cached together.
        Row ``i`` is the predecessor of ``jump_cells()[i]`` (jump cells
        always have key ``>= 1``).
        """
        cached = self.__dict__.get("_jump_predecessors")
        if cached is None:
            jumps = self.jump_cells()
            if jumps.shape[0]:
                keys = self.keys_of(jumps)
                cached = self.cells_of(np.maximum(keys - 1, 0))
            else:
                cached = jumps
            self.__dict__["_jump_predecessors"] = cached
        return cached

    def walk(self) -> Iterator[Cell]:
        """Yield every cell in key order (key 0 first)."""
        for key in range(self.size):
            yield self._point_impl(key)

    def edges(self) -> Iterator[Tuple[Cell, Cell]]:
        """Yield the ``n − 1`` directed curve edges ``(π⁻¹(i), π⁻¹(i+1))``."""
        previous = None
        for cell in self.walk():
            if previous is not None:
                yield previous, cell
            previous = cell

    def verify_bijection(self) -> None:
        """Exhaustively verify that the curve is a bijection (test helper).

        Walks every key, checks the round trip through :meth:`index`, and
        checks that no cell repeats.  Cost is O(n); intended for small
        universes in tests.
        """
        seen = set()
        for key in range(self.size):
            cell = self.point(key)
            if cell in seen:
                raise AssertionError(f"{self!r}: cell {cell} visited twice")
            seen.add(cell)
            back = self.index(cell)
            if back != key:
                raise AssertionError(
                    f"{self!r}: point({key}) = {cell} but index({cell}) = {back}"
                )

    def discontinuities(self) -> Iterator[Cell]:
        """Yield every cell whose curve predecessor is not a grid neighbor.

        A cluster of a rectangular query can only start at the query's
        boundary shell, at one of these jump cells, or at the curve's first
        cell — which is what makes O(surface) cluster counting possible.

        The default implementation walks the whole curve (O(n)); curves
        with analytically sparse jump sets override it and set
        :attr:`has_sparse_discontinuities`.  Continuous curves yield
        nothing.
        """
        if self.is_continuous:
            return
        previous = None
        for cell in self.walk():
            if previous is not None:
                if sum(abs(a - b) for a, b in zip(previous, cell)) != 1:
                    yield cell
            previous = cell

    def verify_continuity(self) -> None:
        """Exhaustively verify the continuity property (test helper)."""
        for a, b in self.edges():
            if sum(abs(x - y) for x, y in zip(a, b)) != 1:
                raise AssertionError(f"{self!r}: edge {a} -> {b} is not a unit step")
