"""Property-based B+-tree testing against a dict model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import TreeError
from repro.storage.bplustree import BPlusTree


class TestRandomWorkloads:
    @given(
        st.integers(3, 8),
        st.lists(st.integers(0, 500), min_size=0, max_size=120, unique=True),
        st.integers(0, 2**31),
    )
    def test_insert_then_delete_random_order(self, order, keys, seed):
        tree = BPlusTree(order=order)
        for key in keys:
            tree.insert(key, key * 3)
            tree.check_invariants()
        assert sorted(k for k, _ in tree.items()) == sorted(keys)

        rng = np.random.default_rng(seed)
        order_of_death = list(rng.permutation(keys))
        survivors = set(keys)
        for key in order_of_death[: len(keys) // 2]:
            tree.delete(int(key))
            survivors.discard(int(key))
            tree.check_invariants()
        assert {k for k, _ in tree.items()} == survivors
        # Then ascending keys above the maximum: the rightmost-leaf path.
        top = max(survivors, default=-1)
        for key in range(top + 1, top + 40):
            tree.insert(key, key * 3)
            tree.check_invariants()
        assert [k for k, _ in tree.items()] == sorted(survivors) + list(range(top + 1, top + 40))

    @given(
        st.lists(st.integers(0, 200), min_size=1, max_size=80, unique=True),
        st.integers(0, 200),
        st.integers(0, 200),
    )
    def test_range_scan_matches_model(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = BPlusTree(order=4)
        for key in keys:
            tree.insert(key, -key)
        expected = sorted((k, -k) for k in keys if lo <= k <= hi)
        assert list(tree.range_scan(lo, hi)) == expected


class TreeMachine(RuleBasedStateMachine):
    """Stateful comparison with a plain dict."""

    def __init__(self):
        super().__init__()
        self.tree = BPlusTree(order=4)
        self.model = {}

    @rule(key=st.integers(0, 100), value=st.integers())
    def insert(self, key, value):
        if key in self.model:
            try:
                self.tree.insert(key, value)
                raise AssertionError("duplicate insert must raise")
            except TreeError:
                pass
        else:
            self.tree.insert(key, value)
            self.model[key] = value

    @rule(key=st.integers(0, 100), value=st.integers())
    def upsert(self, key, value):
        self.tree.insert(key, value, replace=True)
        self.model[key] = value

    @rule(key=st.integers(0, 100))
    def delete(self, key):
        if key in self.model:
            assert self.tree.delete(key) == self.model.pop(key)
        else:
            try:
                self.tree.delete(key)
                raise AssertionError("missing delete must raise")
            except TreeError:
                pass

    @rule(key=st.integers(0, 100))
    def lookup(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @invariant()
    def structural_invariants(self):
        self.tree.check_invariants()

    @invariant()
    def same_contents(self):
        assert dict(self.tree.items()) == self.model


TestTreeStateMachine = TreeMachine.TestCase
TestTreeStateMachine.settings = settings(max_examples=25, deadline=None)
