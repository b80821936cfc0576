"""An in-memory B+-tree over integer keys with linked leaves.

This is the 1-D index substrate the paper's motivation presumes: SFC keys
go in, sorted order and cheap range scans come out.  Leaves are chained,
so a range scan is one descent plus a linked-list walk — exactly the
"one seek, then sequential" access pattern whose seek count the clustering
number measures.

Features: insert (with optional upsert), point lookup, deletion with
borrow/merge rebalancing, inclusive range scans, and a structural
invariant checker used heavily by the property-based tests.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Optional, Tuple

from ..errors import TreeError

__all__ = ["BPlusTree"]


class _Node:
    __slots__ = ("keys", "parent")

    def __init__(self) -> None:
        self.keys: List[int] = []
        self.parent: Optional[_Internal] = None


class _Leaf(_Node):
    __slots__ = ("values", "next", "prev")

    def __init__(self) -> None:
        super().__init__()
        self.values: List[Any] = []
        self.next: Optional[_Leaf] = None
        self.prev: Optional[_Leaf] = None


class _Internal(_Node):
    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: List[_Node] = []


class BPlusTree:
    """B+-tree with ``order`` = maximum number of children per internal node.

    Leaves hold at most ``order − 1`` keys; non-root nodes keep at least
    ``⌈order/2⌉ − 1`` keys (the textbook occupancy rule).  The tree
    knows its rightmost leaf (``_tail``, the last leaf of the chain), so
    a key above every stored key goes there without a descent: the
    ascending inserts of a bulk load, a recovery or a migration cutover.
    """

    def __init__(self, order: int = 32):
        if order < 3:
            raise TreeError(f"order must be >= 3, got {order}")
        self._order = order
        self._tail = _Leaf()
        self._root: _Node = self._tail
        self._size = 0

    # ------------------------------------------------------------------
    # Sizing / capacity rules
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """Maximum children per internal node."""
        return self._order

    @property
    def _max_keys(self) -> int:
        return self._order - 1

    @property
    def _min_keys(self) -> int:
        return (self._order + 1) // 2 - 1

    def __len__(self) -> int:
        return self._size

    def __contains__(self, key: int) -> bool:
        return self.get(key, default=_MISSING) is not _MISSING

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf has height 1)."""
        levels = 1
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
            levels += 1
        return levels

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _find_leaf(self, key: int) -> _Leaf:
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[bisect.bisect_right(node.keys, key)]
        return node  # type: ignore[return-value]

    def get(self, key: int, default: Any = None) -> Any:
        """Value stored under ``key``, or ``default``."""
        leaf = self._find_leaf(key)
        pos = bisect.bisect_left(leaf.keys, key)
        if pos < len(leaf.keys) and leaf.keys[pos] == key:
            return leaf.values[pos]
        return default

    def range_scan(self, lo: int, hi: int) -> Iterator[Tuple[int, Any]]:
        """Yield ``(key, value)`` pairs with ``lo <= key <= hi``, in order."""
        leaf: Optional[_Leaf] = self._find_leaf(lo)
        pos = bisect.bisect_left(leaf.keys, lo)
        while leaf is not None:
            while pos < len(leaf.keys):
                if leaf.keys[pos] > hi:
                    return
                yield leaf.keys[pos], leaf.values[pos]
                pos += 1
            leaf = leaf.next
            pos = 0

    def leaves_for_range(self, lo: int, hi: int) -> Iterator[_Leaf]:
        """Yield the chained leaves a scan of ``[lo, hi]`` touches (in order)."""
        leaf: Optional[_Leaf] = self._find_leaf(lo)
        while leaf is not None:
            yield leaf
            if leaf.keys and leaf.keys[-1] > hi:
                return
            leaf = leaf.next
            if leaf is not None and (not leaf.keys or leaf.keys[0] > hi):
                return

    def items(self) -> Iterator[Tuple[int, Any]]:
        """All pairs in key order."""
        node = self._root
        while isinstance(node, _Internal):
            node = node.children[0]
        leaf: Optional[_Leaf] = node  # type: ignore[assignment]
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, key: int, value: Any, replace: bool = False) -> None:
        """Insert ``key``; duplicate keys raise unless ``replace=True``.

        A key above the rightmost leaf's last key is above every stored
        key, so it takes that leaf straight away, the one a descent from
        the root would reach (PostgreSQL 11's fast path for inserts into
        the rightmost B-tree leaf).  Every other key descends.  The
        insert and the split after that are the same either way, so
        every sequence of inserts builds the tree a descent per key
        builds: ascending keys still leave every leaf but the last
        half full.
        """
        tail = self._tail
        leaf = tail if tail.keys and key > tail.keys[-1] else self._find_leaf(key)
        pos = bisect.bisect_left(leaf.keys, key)
        if pos < len(leaf.keys) and leaf.keys[pos] == key:
            if not replace:
                raise TreeError(f"duplicate key {key}")
            leaf.values[pos] = value
            return
        leaf.keys.insert(pos, key)
        leaf.values.insert(pos, value)
        self._size += 1
        if len(leaf.keys) > self._max_keys:
            self._split_leaf(leaf)

    def _split_leaf(self, leaf: _Leaf) -> None:
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        leaf.keys = leaf.keys[:mid]
        leaf.values = leaf.values[:mid]
        right.next = leaf.next
        if right.next is not None:
            right.next.prev = right
        else:
            self._tail = right
        right.prev = leaf
        leaf.next = right
        self._insert_in_parent(leaf, right.keys[0], right)

    def _split_internal(self, node: _Internal) -> None:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _Internal()
        right.keys = node.keys[mid + 1 :]
        right.children = node.children[mid + 1 :]
        for child in right.children:
            child.parent = right
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        self._insert_in_parent(node, separator, right)

    def _insert_in_parent(self, left: _Node, separator: int, right: _Node) -> None:
        parent = left.parent
        if parent is None:
            root = _Internal()
            root.keys = [separator]
            root.children = [left, right]
            left.parent = root
            right.parent = root
            self._root = root
            return
        pos = parent.children.index(left)
        parent.keys.insert(pos, separator)
        parent.children.insert(pos + 1, right)
        right.parent = parent
        if len(parent.keys) > self._max_keys:
            self._split_internal(parent)

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, key: int) -> Any:
        """Remove ``key`` and return its value; missing keys raise."""
        leaf = self._find_leaf(key)
        pos = bisect.bisect_left(leaf.keys, key)
        if pos >= len(leaf.keys) or leaf.keys[pos] != key:
            raise TreeError(f"key {key} not present")
        value = leaf.values.pop(pos)
        leaf.keys.pop(pos)
        self._size -= 1
        self._rebalance(leaf)
        return value

    def _rebalance(self, node: _Node) -> None:
        if node.parent is None:
            if isinstance(node, _Internal) and len(node.children) == 1:
                self._root = node.children[0]
                self._root.parent = None
            return
        if len(node.keys) >= self._min_keys:
            return
        parent = node.parent
        pos = parent.children.index(node)
        left = parent.children[pos - 1] if pos > 0 else None
        right = parent.children[pos + 1] if pos + 1 < len(parent.children) else None

        if left is not None and len(left.keys) > self._min_keys:
            self._borrow_from_left(parent, pos, left, node)
        elif right is not None and len(right.keys) > self._min_keys:
            self._borrow_from_right(parent, pos, node, right)
        elif left is not None:
            self._merge(parent, pos - 1, left, node)
        else:
            self._merge(parent, pos, node, right)

    def _borrow_from_left(
        self, parent: _Internal, pos: int, left: _Node, node: _Node
    ) -> None:
        if isinstance(node, _Leaf):
            assert isinstance(left, _Leaf)
            node.keys.insert(0, left.keys.pop())
            node.values.insert(0, left.values.pop())
            parent.keys[pos - 1] = node.keys[0]
        else:
            assert isinstance(left, _Internal) and isinstance(node, _Internal)
            node.keys.insert(0, parent.keys[pos - 1])
            parent.keys[pos - 1] = left.keys.pop()
            child = left.children.pop()
            child.parent = node
            node.children.insert(0, child)

    def _borrow_from_right(
        self, parent: _Internal, pos: int, node: _Node, right: _Node
    ) -> None:
        if isinstance(node, _Leaf):
            assert isinstance(right, _Leaf)
            node.keys.append(right.keys.pop(0))
            node.values.append(right.values.pop(0))
            parent.keys[pos] = right.keys[0]
        else:
            assert isinstance(right, _Internal) and isinstance(node, _Internal)
            node.keys.append(parent.keys[pos])
            parent.keys[pos] = right.keys.pop(0)
            child = right.children.pop(0)
            child.parent = node
            node.children.append(child)

    def _merge(self, parent: _Internal, left_pos: int, left: _Node, right: _Node) -> None:
        separator = parent.keys.pop(left_pos)
        parent.children.pop(left_pos + 1)
        if isinstance(left, _Leaf):
            assert isinstance(right, _Leaf)
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next = right.next
            if right.next is not None:
                right.next.prev = left
            else:
                self._tail = left
        else:
            assert isinstance(right, _Internal)
            left.keys.append(separator)
            left.keys.extend(right.keys)
            for child in right.children:
                child.parent = left
            left.children.extend(right.children)
        self._rebalance(parent)

    # ------------------------------------------------------------------
    # Invariants (test support)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify structural invariants; raises ``AssertionError`` on damage."""
        leaves: List[_Leaf] = []
        count = self._walk_check(self._root, None, None, leaves)
        if count != self._size:
            raise AssertionError(f"size {self._size} but {count} keys reachable")
        for a, b in zip(leaves, leaves[1:]):
            if a.next is not b or b.prev is not a:
                raise AssertionError("leaf chain broken")
            if a.keys and b.keys and a.keys[-1] >= b.keys[0]:
                raise AssertionError("leaf chain out of order")
        if self._tail is not leaves[-1] or self._tail.next is not None:
            raise AssertionError("tail is not the last leaf of the chain")

    def _walk_check(
        self,
        node: _Node,
        lo: Optional[int],
        hi: Optional[int],
        leaves: List[_Leaf],
    ) -> int:
        if node.keys != sorted(node.keys):
            raise AssertionError("unsorted keys in node")
        for key in node.keys:
            if (lo is not None and key < lo) or (hi is not None and key >= hi):
                raise AssertionError(f"key {key} violates separator range [{lo},{hi})")
        if node is not self._root and len(node.keys) < self._min_keys:
            raise AssertionError("underfull node")
        if len(node.keys) > self._max_keys:
            raise AssertionError("overfull node")
        if isinstance(node, _Leaf):
            leaves.append(node)
            return len(node.keys)
        assert isinstance(node, _Internal)
        if len(node.children) != len(node.keys) + 1:
            raise AssertionError("child/key count mismatch")
        total = 0
        bounds = [lo] + list(node.keys) + [hi]
        for child, (clo, chi) in zip(node.children, zip(bounds, bounds[1:])):
            if child.parent is not node:
                raise AssertionError("broken parent pointer")
            total += self._walk_check(child, clo, chi, leaves)
        return total


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
