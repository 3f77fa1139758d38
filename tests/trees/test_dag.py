"""Interned trees are minimal DAGs (Section 1 DAG remark)."""

from hypothesis import given, settings

from repro.trees.generate import full_binary_tree
from repro.trees.tree import Tree, parse_term

from tests.conftest import BINARY_ALPHABET, dag_node_count, trees_over


def unfold(tree):
    """The tree as nested ``(label, children)`` tuples, sharing nothing."""
    return (tree.label, tuple(unfold(child) for child in tree.children))


def refold(unfolded):
    label, children = unfolded
    return Tree(label, tuple(refold(child) for child in children))


class TestHashConsing:
    def test_equal_subtrees_shared(self):
        a1 = Tree("a", ())
        a2 = Tree("a", ())
        assert a1 is a2
        f1 = Tree("f", (a1, a2))
        f2 = Tree("f", (a1, a1))
        assert f1 is f2

    def test_repeated_subtree_counts_once(self):
        # f, g(a), a → 3 distinct nodes.
        assert dag_node_count(parse_term("f(g(a), g(a))")) == 3

    def test_distinct_labels_not_shared(self):
        assert dag_node_count(parse_term("f(a, b)")) == 3


class TestSizes:
    def test_tree_size_matches_unfolding(self):
        assert parse_term("f(g(a), g(a))").size == 5

    def test_full_binary_tree_is_linear_as_dag(self):
        """The paper's point: exponential tree, linear DAG."""
        height = 20
        tree = full_binary_tree("f", "l", height)
        assert tree.size == 2 ** height - 1
        assert dag_node_count(tree) == height

    def test_roundtrip(self):
        # Folding an unshared copy back through the intern table gives the
        # same minimal DAG: f(g(f(a, b)), f(a, b)), g(...), f(a, b), a, b.
        tree = parse_term("f(g(f(a, b)), f(a, b))")
        rebuilt = refold(unfold(tree))
        assert rebuilt is tree
        assert dag_node_count(rebuilt) == 5
        assert rebuilt.size == 8


class TestProperties:
    @given(trees_over(BINARY_ALPHABET))
    @settings(max_examples=80)
    def test_dag_roundtrip_identity(self, tree):
        assert refold(unfold(tree)) is tree

    @given(trees_over(BINARY_ALPHABET))
    @settings(max_examples=80)
    def test_dag_never_larger_than_tree(self, tree):
        assert dag_node_count(tree) <= tree.size

    @given(trees_over(BINARY_ALPHABET))
    @settings(max_examples=60)
    def test_rebuilt_tree_is_the_same_node(self, tree):
        assert parse_term(str(tree)) is tree
