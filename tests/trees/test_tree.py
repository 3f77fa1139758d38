"""Tests for the core Tree type and the term syntax."""

import pytest

from repro.errors import ParseError, TreeError
from repro.trees.tree import Tree, format_term, leaf, parse_term, tree


class TestConstruction:
    def test_leaf(self):
        node = leaf("a")
        assert node.label == "a"
        assert node.children == ()
        assert node.is_leaf

    def test_nested(self):
        node = tree("f", leaf("a"), leaf("b"))
        assert node.arity == 2
        assert node.children[0].label == "a"

    def test_rejects_non_tree_children(self):
        with pytest.raises(TreeError):
            Tree("f", ("a",))  # type: ignore[arg-type]

    def test_immutable(self):
        node = leaf("a")
        with pytest.raises(TreeError):
            node.label = "b"

    def test_size_and_height(self):
        node = parse_term("f(f(a, b), a)")
        assert node.size == 5
        assert node.height == 3
        assert leaf("a").height == 1
        tallest_last = parse_term("f(a, g(h(b)))")
        assert (tallest_last.size, tallest_last.height) == (5, 4)

    def test_child_is_one_based(self):
        node = tree("f", leaf("a"), leaf("b"))
        assert node.child(1).label == "a"
        assert node.child(2).label == "b"
        with pytest.raises(TreeError):
            node.child(0)
        with pytest.raises(TreeError):
            node.child(3)


class TestEqualityHashing:
    def test_structural_equality(self):
        assert parse_term("f(a, b)") == parse_term("f(a, b)")
        assert parse_term("f(a, b)") != parse_term("f(b, a)")

    def test_usable_as_dict_key(self):
        table = {parse_term("f(a, a)"): 1}
        assert table[tree("f", leaf("a"), leaf("a"))] == 1

    def test_hash_distinguishes_shape(self):
        assert hash(parse_term("f(a, b)")) != hash(parse_term("g(a)"))


class TestTraversal:
    def test_nodes_preorder(self):
        node = parse_term("f(g(a), b)")
        assert list(node.nodes()) == [(), (1,), (1, 1), (2,)]

    def test_subtrees(self):
        node = parse_term("f(a, b)")
        got = dict(node.subtrees())
        assert got[()] == node
        assert got[(1,)] == leaf("a")

    def test_leaves_left_to_right(self):
        node = parse_term("f(g(a), b)")
        assert [l.label for _, l in node.leaves()] == ["a", "b"]

    def test_labels(self):
        node = parse_term("f(g(a), b)")
        assert list(node.labels()) == ["f", "g", "a", "b"]

    def test_map_labels(self):
        node = parse_term("f(a, a)").map_labels(str.upper)
        assert node == parse_term("F(A, A)")


class TestTermSyntax:
    def test_roundtrip_simple(self):
        for text in ["a", "f(a, b)", "root(a(#, a(#, #)), b(#, #))"]:
            assert format_term(parse_term(text)) == text

    def test_quoted_labels(self):
        node = parse_term('"(a*,b*)"(a, b)')
        assert node.label == "(a*,b*)"
        assert parse_term(format_term(node)) == node

    def test_one_node_tree_with_parens(self):
        assert parse_term("f()") == leaf("f")

    def test_whitespace_tolerant(self):
        assert parse_term(" f( a , b ) ") == parse_term("f(a,b)")

    def test_parse_errors(self):
        for bad in ["", "f(", "f(a,)", "f(a))", "f(a) x", '"unterminated']:
            with pytest.raises(ParseError):
                parse_term(bad)

    def test_bytes_are_read_as_utf8(self):
        assert parse_term('f("é", b)'.encode()) == parse_term('f("é", b)')
        with pytest.raises(ParseError, match="invalid UTF-8 at byte 2"):
            parse_term(b"f(\xe9)")

    def test_special_chars_in_plain_labels(self):
        # '#', '*', '+', '?', '|' are legal identifier characters here.
        assert parse_term("a*(#, #)").label == "a*"
