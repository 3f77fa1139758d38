"""Tests for the ⊔ operator (Section 3), including hypothesis properties."""

import pytest
from hypothesis import given, settings

from repro.errors import TreeError
from repro.trees.lcp import (
    BOTTOM,
    bottom_positions,
    is_bottom,
    is_prefix_of,
    lcp,
    lcp_many,
)
from repro.trees.tree import parse_term

from tests.conftest import BINARY_ALPHABET, trees_over


class TestBinaryLcp:
    def test_equal_trees(self):
        t = parse_term("f(a, g(b))")
        assert lcp(t, t) == t

    def test_different_roots(self):
        assert is_bottom(lcp(parse_term("a"), parse_term("b")))

    def test_partial_agreement(self):
        from repro.trees.tree import Tree, leaf

        got = lcp(parse_term("f(a, b)"), parse_term("f(a, a)"))
        assert got == Tree("f", (leaf("a"), BOTTOM))

    def test_bottom_is_absorbing(self):
        t = parse_term("f(a, b)")
        assert is_bottom(lcp(BOTTOM, t))
        assert is_bottom(lcp(t, BOTTOM))

    def test_paper_example(self):
        """out_τ(ε) = g(⊥,⊥) means all outputs are g-rooted (Section 3)."""
        from repro.trees.tree import Tree

        got = lcp(parse_term("g(a, b)"), parse_term("g(b, a)"))
        assert got == Tree("g", (BOTTOM, BOTTOM))

    def test_shared_subtrees_compared_once(self):
        """⊔ of two height-40 doubling DAGs (2^40 leaves each, 41 distinct
        nodes) differing only in their leaf: the per-call memo keeps the
        work linear in DAG size."""
        import time

        from repro.trees.tree import Tree, leaf

        def doubling(bottom, height=40):
            node = bottom
            for _ in range(height):
                node = Tree("f", (node, node))
            return node

        start = time.perf_counter()
        got = lcp(doubling(leaf("a")), doubling(leaf("b")))
        assert time.perf_counter() - start < 0.5
        assert got is doubling(BOTTOM)


class TestLcpMany:
    def test_empty_set_rejected(self):
        with pytest.raises(TreeError):
            lcp_many([])

    def test_singleton(self):
        t = parse_term("f(a, b)")
        assert lcp_many([t]) == t

    def test_three_way(self):
        from repro.trees.tree import Tree

        got = lcp_many(
            [parse_term("f(a, b)"), parse_term("f(a, a)"), parse_term("f(b, a)")]
        )
        assert got == Tree("f", (BOTTOM, BOTTOM))


class TestProperties:
    @given(trees_over(BINARY_ALPHABET), trees_over(BINARY_ALPHABET))
    @settings(max_examples=80)
    def test_commutative(self, s, t):
        assert lcp(s, t) == lcp(t, s)

    @given(
        trees_over(BINARY_ALPHABET),
        trees_over(BINARY_ALPHABET),
        trees_over(BINARY_ALPHABET),
    )
    @settings(max_examples=60)
    def test_associative(self, s, t, u):
        assert lcp(lcp(s, t), u) == lcp(s, lcp(t, u))

    @given(trees_over(BINARY_ALPHABET))
    @settings(max_examples=60)
    def test_idempotent(self, s):
        assert lcp(s, s) == s

    @given(trees_over(BINARY_ALPHABET), trees_over(BINARY_ALPHABET))
    @settings(max_examples=80)
    def test_result_is_prefix_of_both(self, s, t):
        prefix = lcp(s, t)
        assert is_prefix_of(prefix, s)
        assert is_prefix_of(prefix, t)

    @given(trees_over(BINARY_ALPHABET), trees_over(BINARY_ALPHABET))
    @settings(max_examples=80)
    def test_equal_iff_no_bottoms_when_inputs_equal(self, s, t):
        prefix = lcp(s, t)
        if not list(bottom_positions(prefix)):
            assert s == t


class TestBottomPositions:
    def test_positions_sorted(self):
        prefix = lcp(parse_term("f(a, g(a))"), parse_term("f(b, g(b))"))
        assert list(bottom_positions(prefix)) == [(1,), (2, 1)]

    def test_no_bottoms(self):
        assert list(bottom_positions(parse_term("f(a, b)"))) == []


class TestPrefixOrder:
    def test_bottom_below_everything(self):
        assert is_prefix_of(BOTTOM, parse_term("f(a, b)"))

    def test_strict_prefix(self):
        prefix = lcp(parse_term("f(a, b)"), parse_term("f(a, a)"))
        assert is_prefix_of(prefix, parse_term("f(a, b)"))
        assert not is_prefix_of(parse_term("f(a, b)"), prefix)
