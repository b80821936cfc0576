"""Unit tests for the B+-tree."""

import pytest

from repro.errors import TreeError
from repro.storage.bplustree import BPlusTree


class TestBasics:
    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert tree.get(1) is None
        assert tree.get(1, default="x") == "x"
        assert 1 not in tree
        assert list(tree.items()) == []
        assert tree.height == 1

    def test_order_guard(self):
        with pytest.raises(TreeError):
            BPlusTree(order=2)

    def test_insert_and_get(self):
        tree = BPlusTree(order=4)
        tree.insert(5, "five")
        tree.insert(3, "three")
        tree.insert(8, "eight")
        assert tree.get(5) == "five"
        assert tree.get(3) == "three"
        assert 8 in tree
        assert len(tree) == 3

    def test_duplicate_insert_raises(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        with pytest.raises(TreeError):
            tree.insert(1, "b")

    def test_upsert(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        tree.insert(1, "b", replace=True)
        assert tree.get(1) == "b"
        assert len(tree) == 1

    def test_items_are_sorted(self):
        tree = BPlusTree(order=4)
        for key in [9, 1, 7, 3, 5, 0, 8]:
            tree.insert(key, key)
        assert [k for k, _ in tree.items()] == [0, 1, 3, 5, 7, 8, 9]


class TestSplits:
    def test_sequential_inserts_grow_height(self):
        tree = BPlusTree(order=3)
        for key in range(50):
            tree.insert(key, key)
        tree.check_invariants()
        assert tree.height > 2
        assert len(tree) == 50

    def test_reverse_inserts(self):
        tree = BPlusTree(order=3)
        for key in range(50, 0, -1):
            tree.insert(key, key)
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == list(range(1, 51))


class TestRangeScan:
    @pytest.fixture
    def tree(self):
        tree = BPlusTree(order=4)
        for key in range(0, 100, 2):  # even keys only
            tree.insert(key, key * 10)
        return tree

    def test_inclusive_bounds(self, tree):
        assert list(tree.range_scan(10, 14)) == [(10, 100), (12, 120), (14, 140)]

    def test_bounds_between_keys(self, tree):
        assert [k for k, _ in tree.range_scan(9, 15)] == [10, 12, 14]

    def test_empty_range(self, tree):
        assert list(tree.range_scan(11, 11)) == []

    def test_full_range(self, tree):
        assert len(list(tree.range_scan(0, 98))) == 50

    def test_range_past_end(self, tree):
        assert [k for k, _ in tree.range_scan(96, 10**9)] == [96, 98]


class TestDeletion:
    def test_delete_returns_value(self):
        tree = BPlusTree()
        tree.insert(1, "a")
        assert tree.delete(1) == "a"
        assert len(tree) == 0
        assert 1 not in tree

    def test_delete_missing_raises(self):
        tree = BPlusTree()
        with pytest.raises(TreeError):
            tree.delete(42)

    def test_delete_all_then_reuse(self):
        tree = BPlusTree(order=3)
        for key in range(30):
            tree.insert(key, key)
        for key in range(30):
            tree.delete(key)
            tree.check_invariants()
        assert len(tree) == 0
        tree.insert(5, "back")
        assert tree.get(5) == "back"

    def test_delete_triggers_borrow_and_merge(self):
        tree = BPlusTree(order=3)
        for key in range(64):
            tree.insert(key, key)
        # Delete from the middle outward to exercise both borrow directions.
        for key in list(range(20, 44)) + list(range(0, 20)) + list(range(44, 64)):
            tree.delete(key)
            tree.check_invariants()
        assert len(tree) == 0

    def test_root_collapse(self):
        tree = BPlusTree(order=3)
        for key in range(10):
            tree.insert(key, key)
        for key in range(9):
            tree.delete(key)
        tree.check_invariants()
        assert tree.height == 1


class TestLeafChain:
    def test_leaves_for_range(self):
        tree = BPlusTree(order=4)
        for key in range(40):
            tree.insert(key, key)
        leaves = list(tree.leaves_for_range(5, 25))
        keys = [k for leaf in leaves for k in leaf.keys]
        assert set(range(5, 26)) <= set(keys)


def _leaves(tree):
    """The leaf chain, first leaf to last."""
    node = tree._root
    while hasattr(node, "children"):
        node = node.children[0]
    chain = []
    while node is not None:
        chain.append(node)
        node = node.next
    return chain


class TestRightmostLeaf:
    """A key above every stored key goes straight to the rightmost leaf
    (``_tail``), which every split and merge keeps the last leaf of the
    chain; ``check_invariants`` asserts that after every operation."""

    @pytest.mark.parametrize("order, count", [(3, 200), (4, 200), (32, 1200)])
    def test_ascending_inserts_through_root_splits(self, order, count):
        tree = BPlusTree(order=order)
        heights = []
        for key in range(count):
            tree.insert(key, -key)
            tree.check_invariants()
            assert tree._tail.keys[-1] == key
            if tree.height not in heights:
                heights.append(tree.height)
        assert heights == list(range(1, len(heights) + 1)) and len(heights) >= 3
        assert list(tree.items()) == [(k, -k) for k in range(count)]
        assert all(tree.get(k) == -k for k in range(count))
        # The split rule is unchanged: every leaf but the last keeps the
        # left half of a leaf that overflowed.
        chain = _leaves(tree)
        assert chain[-1] is tree._tail
        assert [len(leaf.keys) for leaf in chain[:-1]] == [order // 2] * (len(chain) - 1)

    def test_a_key_at_or_below_the_maximum_descends(self):
        tree = BPlusTree(order=4)
        for key in range(0, 40, 2):
            tree.insert(key, key)
        tree.insert(37, 37)  # below the maximum, inside the tail's range
        tree.insert(1, 1)
        with pytest.raises(TreeError):
            tree.insert(38, "again")  # the maximum itself is a duplicate
        tree.insert(38, "replaced", replace=True)
        tree.check_invariants()
        assert [tree.get(k) for k in (1, 37, 38)] == [1, 37, "replaced"]
        assert len(tree) == 22

    @pytest.mark.parametrize("order", [4, 5])
    def test_tail_merged_into_its_left_sibling_then_insert_above(self, order):
        tree = BPlusTree(order=order)
        for key in range(12):
            tree.insert(key, key)
        old_tail = tree._tail
        left = old_tail.prev
        # Delete the rightmost leaf's keys until it merges into its left
        # sibling, first thinning the sibling so it has no key to lend.
        for key in reversed(list(old_tail.keys)):
            while len(left.keys) > tree._min_keys:
                tree.delete(left.keys[0])
                tree.check_invariants()
            tree.delete(key)
            tree.check_invariants()
            if tree._tail is not old_tail:
                break
        assert tree._tail is left and left.next is None
        assert all(leaf is not old_tail for leaf in _leaves(tree))
        top = max(k for k, _ in tree.items())
        tree.insert(top + 100, "above")
        tree.check_invariants()
        assert left.keys[-1] == top + 100 and tree.get(top + 100) == "above"

    def test_delete_all_then_reuse_lands_in_the_surviving_leaf(self):
        tree = BPlusTree(order=3)
        for key in range(30):
            tree.insert(key, key)
        for key in range(30):
            tree.delete(key)
            tree.check_invariants()
        survivor = tree._root
        assert tree._tail is survivor and survivor.keys == []
        tree.insert(100, 100)
        assert survivor.keys == [100]
        for key in (101, 102):
            tree.insert(key, key)
            tree.check_invariants()
        assert tree.height == 2 and survivor.keys == [100]
        assert survivor.next is tree._tail and tree._tail.keys == [101, 102]
        assert list(tree.items()) == [(100, 100), (101, 101), (102, 102)]

    def test_a_stale_tail_fails_the_invariant_check(self):
        tree = BPlusTree(order=3)
        for key in range(10):
            tree.insert(key, key)
        tree._tail = tree._tail.prev
        with pytest.raises(AssertionError, match="tail"):
            tree.check_invariants()
