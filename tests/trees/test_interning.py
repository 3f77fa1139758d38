"""Tests for the hash-consed (interned) Tree core."""

import copy
import gc
import pickle
import sys
import threading
import time

import pytest
from hypothesis import given, settings

from repro.errors import TreeError
from repro.trees.tree import (
    Tree,
    intern_stats,
    interned_count,
    leaf,
    parse_term,
    reset_intern_stats,
    tree,
)

from tests.conftest import BINARY_ALPHABET, trees_over


class TestInterning:
    def test_identical_construction_returns_same_object(self):
        kids = (leaf("a"), leaf("b"))
        assert Tree("f", kids) is Tree("f", kids)

    def test_structurally_equal_construction_is_identity(self):
        assert parse_term("f(a, g(b))") is parse_term("f(a, g(b))")

    def test_distinct_trees_are_distinct_objects(self):
        assert parse_term("f(a, b)") is not parse_term("f(b, a)")

    def test_subtrees_are_shared(self):
        outer = parse_term("f(g(a), g(a))")
        assert outer.children[0] is outer.children[1]
        assert outer.children[0] is parse_term("g(a)")

    def test_uid_stable_and_unique(self):
        s = parse_term("f(a, b)")
        t = parse_term("f(a, a)")
        assert s.uid == parse_term("f(a, b)").uid
        assert s.uid != t.uid

    def test_uids_never_reused_after_gc(self):
        victim = Tree("only-here-once", (leaf("x-unique"),))
        old_uid = victim.uid
        del victim
        gc.collect()
        reborn = Tree("only-here-once", (leaf("x-unique"),))
        assert reborn.uid != old_uid

    def test_intern_table_is_weak(self):
        gc.collect()
        before = interned_count()
        keep = Tree("weakness-probe", (leaf("weakness-leaf"),))
        assert interned_count() > before
        del keep
        gc.collect()
        assert interned_count() <= before + 2  # probes may linger briefly

    def test_hit_miss_counters(self):
        reset_intern_stats()
        a = Tree("counter-probe", ())
        first = intern_stats()
        assert first["misses"] >= 1
        b = Tree("counter-probe", ())
        second = intern_stats()
        assert b is a
        assert second["hits"] == first["hits"] + 1

    def test_list_and_generator_children_intern_to_the_tuple_node(self):
        kids = (leaf("a"), leaf("b"))
        node = Tree("f", kids)
        assert Tree("f", list(kids)) is node
        assert Tree("f", (kid for kid in kids)) is node
        assert Tree("f", list(kids)).children.__class__ is tuple

    def test_non_tree_child_rejected(self):
        class Impostor:
            uid = 1
            size = 1
            height = 1
            label = "a"
            children = ()

        with pytest.raises(TreeError, match="is not a Tree"):
            Tree("f", (leaf("a"), Impostor()))
        with pytest.raises(TreeError, match="is not a Tree"):
            Tree("f", ["a"])

    def test_unhashable_label_rejected(self):
        with pytest.raises(TreeError):
            Tree(["not", "hashable"], ())


class TestConcurrentInterning:
    def test_racing_constructions_share_one_uid(self):
        """Two threads that both miss the lookup of one new structure
        still get one object: the miss path publishes atomically."""
        barrier = threading.Barrier(2, timeout=10)
        calls = threading.local()

        class Rendezvous:
            """Hashing meets the other thread first, then dawdles, so
            both lookups miss before either thread can insert."""

            def __hash__(self):
                if threading.current_thread() in threads:
                    calls.count = getattr(calls, "count", 0) + 1
                    if calls.count == 1:
                        barrier.wait()
                    elif calls.count == 2:
                        time.sleep(0.05)
                return 42

        label = Rendezvous()
        built = [None, None]

        def build(slot):
            built[slot] = Tree(label)

        threads = [threading.Thread(target=build, args=(i,)) for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert built[0] is built[1]
        assert built[0].uid == built[1].uid

    def test_threads_building_one_forest_agree(self):
        """Eight threads, a tiny switch interval, one set of new shapes:
        every thread must end up with the same objects."""
        shapes = 300
        results = [None] * 8
        start = threading.Barrier(len(results), timeout=10)

        def build(slot):
            start.wait()
            results[slot] = [
                Tree("stress", (leaf(f"n{n}"), leaf(f"m{n % 7}")))
                for n in range(shapes)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=build, args=(i,))
                for i in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for built in results[1:]:
            assert all(a is b for a, b in zip(results[0], built))
        assert len({tree.uid for tree in results[0]}) == shapes


class TestEqualityStability:
    def test_hash_equals_for_equal_trees(self):
        # Both trees stay alive: identity hashing is only meaningful
        # between live trees (a dead tree's address may be reused).
        first = parse_term("f(a, b)")
        second = parse_term("f(a, b)")
        assert second is first
        assert hash(second) == hash(first)

    def test_trees_key_dicts_and_sets_by_structure(self):
        terms = ["f(a, b)", "f(b, a)", "g(f(a, b))", "a"]
        table = {parse_term(text): text for text in terms}
        members = {parse_term(text) for text in terms}
        for text in terms:
            reparsed = parse_term(str(parse_term(text)))
            assert table[reparsed] == text
            assert reparsed in members
        assert parse_term("f(a, a)") not in table
        assert parse_term("f(a, a)") not in members

    def test_equality_is_o1_identity(self):
        s = parse_term("f(g(a), g(a))")
        t = parse_term("f(g(a), g(a))")
        assert s == t and s is t

    @given(trees_over(BINARY_ALPHABET), trees_over(BINARY_ALPHABET))
    @settings(max_examples=80)
    def test_equality_iff_identity(self, s, t):
        assert (s == t) == (s is t)

    @given(trees_over(BINARY_ALPHABET))
    @settings(max_examples=50)
    def test_hash_stable_across_reconstruction(self, s):
        rebuilt = Tree(s.label, tuple(Tree(c.label, c.children) for c in s.children))
        assert rebuilt is s
        assert hash(rebuilt) == hash(s)


class TestImmutabilityAndCopies:
    def test_mutation_raises(self):
        node = leaf("a")
        with pytest.raises(TreeError):
            node.label = "b"
        with pytest.raises(TreeError):
            node.children = ()

    def test_size_and_height_are_read_only(self):
        node = parse_term("f(a, g(b))")
        for name in ("size", "height", "uid"):
            with pytest.raises(TreeError):
                setattr(node, name, 1)
            with pytest.raises(TreeError):
                delattr(node, name)
        assert (node.size, node.height) == (4, 3)

    def test_copy_and_deepcopy_return_self(self):
        node = parse_term("f(a, g(b))")
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node

    def test_pickle_roundtrip_reinterns(self):
        node = parse_term("f(a, g(b))")
        assert pickle.loads(pickle.dumps(node)) is node

    def test_map_labels_shares_relabeled_subtrees(self):
        node = parse_term("f(g(a), g(a))")
        upper = node.map_labels(str.upper)
        assert upper is parse_term("F(G(A), G(A))")
        assert upper.children[0] is upper.children[1]


class TestSharingEconomics:
    def test_full_binary_tree_allocates_linearly(self):
        """2^n - 1 logical nodes, n distinct objects — the hash-consing win."""
        height = 16
        level = leaf("l")
        distinct = {level.uid}
        for _ in range(height - 1):
            level = tree("f", level, level)
            distinct.add(level.uid)
        assert level.size == 2 ** height - 1
        assert len(distinct) == height
