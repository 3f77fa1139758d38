"""Tests for the abstract-values encoding mode."""

import pytest

from repro.errors import EncodingError

from repro.workloads.library import (
    library_document,
    library_input_dtd,
)
from repro.xml.encode import DTDEncoder, VALUE_LABELS, abstract_value_of
from repro.xml.schema import schema_dtta
from repro.xml.unranked import element, text


class TestAbstraction:
    def test_stable(self):
        assert abstract_value_of("hello") == abstract_value_of("hello")

    def test_two_values_exist(self):
        values = {abstract_value_of(t) for t in ["a", "b", "c", "d"]}
        assert values == set(VALUE_LABELS)

    def test_parity_semantics(self):
        # Byte-sum parity: consecutive counter digits alternate.
        assert abstract_value_of("title1") != abstract_value_of("title2")

    def test_none_is_stable(self):
        assert abstract_value_of(None) in VALUE_LABELS

    def test_lone_surrogate_is_an_encoding_error(self):
        with pytest.raises(EncodingError, match="^lone surrogate U[+]DC01 is not"):
            abstract_value_of("ok \U0001f600 \udc01 \ud800")

    def test_lone_surrogate_in_pcdata_is_refused_without_abstraction(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)

        def book(author):
            return element(
                "LIBRARY",
                element(
                    "BOOK",
                    element("AUTHOR", text(author)),
                    element("TITLE", text("T")),
                    element("YEAR", text("1999")),
                ),
            )

        assert encoder.encode(book("ada")) is not None
        with pytest.raises(EncodingError, match="lone surrogate U[+]D800"):
            encoder.encode(book("\ud800"))


class TestEncoding:
    def test_pcdata_becomes_unary(self):
        encoder = DTDEncoder(
            library_input_dtd(), fuse=True, abstract_values=True
        )
        assert encoder.alphabet.rank("pcdata") == 1
        assert encoder.alphabet.rank("v0") == 0
        tree = encoder.encode(library_document(1))
        pcdata_nodes = [n for _, n in tree.subtrees() if n.label == "pcdata"]
        assert pcdata_nodes
        assert all(n.arity == 1 for n in pcdata_nodes)
        assert all(n.children[0].label in VALUE_LABELS for n in pcdata_nodes)

    def test_values_keyed_by_value_leaf(self):
        """Ordinal ``k`` is the ``k``-th ``v0``/``v1`` leaf in preorder."""
        encoder = DTDEncoder(
            library_input_dtd(), fuse=True, abstract_values=True
        )
        document = library_document(1)
        tree, values = encoder.encode_with_values(document)
        leaves = [
            node for _, node in tree.subtrees() if node.label in VALUE_LABELS
        ]
        texts = [node.text for _, node in document.subtrees() if node.is_text]
        assert sorted(values) == list(range(len(leaves)))
        assert [values[slot] for slot in sorted(values)] == texts
        assert [leaf.label for leaf in leaves] == [
            abstract_value_of(text) for text in texts
        ]

    def test_roundtrip_with_values(self):
        encoder = DTDEncoder(
            library_input_dtd(), fuse=True, abstract_values=True
        )
        doc = library_document(2)
        assert encoder.roundtrip(doc) == doc

    def test_schema_accepts(self):
        encoder = DTDEncoder(
            library_input_dtd(), fuse=True, abstract_values=True
        )
        automaton = schema_dtta(encoder)
        for count in range(3):
            assert automaton.accepts(encoder.encode(library_document(count)))

    def test_schema_allows_both_values(self):
        """Both abstract values are allowed at every text position, so
        the learner's domain does not leak the actual document values."""
        encoder = DTDEncoder(
            library_input_dtd(), fuse=True, abstract_values=True
        )
        automaton = schema_dtta(encoder)
        tree = encoder.encode(library_document(1))

        def flip_values(node):
            from repro.trees.tree import Tree

            if node.label in VALUE_LABELS:
                other = VALUE_LABELS[1 - VALUE_LABELS.index(node.label)]
                return Tree(other, ())
            return Tree(node.label, tuple(flip_values(c) for c in node.children))

        assert automaton.accepts(flip_values(tree))


def test_an_element_named_like_a_value_leaf_keeps_the_slots_aligned():
    """``v0`` elements encode to leaves that count as value slots; they
    carry no value, and the texts after them keep theirs."""
    from repro.codec import Transformation
    from repro.transducers.dtop import DTOP
    from repro.transducers.rhs import call, rhs_tree
    from repro.xml.dtd import parse_dtd
    from repro.xml.pipeline import xml_codec

    dtd = parse_dtd(
        "<!ELEMENT r (v0, t)* > <!ELEMENT v0 EMPTY > <!ELEMENT t #PCDATA >"
    )
    encoder = DTDEncoder(dtd, abstract_values=True)
    document = element(
        "r", element("v0"), element("t", text("x")), element("v0"), element("t", text("y"))
    )
    tree, values = encoder.encode_with_values(document)
    assert values == {1: "x", 3: "y"}
    assert encoder.decode(tree, values) == document
    identity = Transformation(
        DTOP(
            encoder.alphabet,
            encoder.alphabet,
            call("q", 0),
            {
                ("q", label): rhs_tree(
                    (label, *[("q", index) for index in range(1, rank + 1)])
                    if rank
                    else label
                )
                for label, rank in encoder.alphabet.items()
            },
        ),
        xml_codec(encoder, encoder),
    )
    assert identity.apply(document) == document


def test_value_leaves_under_ignored_children_keep_their_ordinals():
    """A ``#`` with children decodes to nothing, and a ``pcdata`` reads
    only its first child; the slots they ignore still take ordinals."""
    from repro.trees.tree import Tree
    from repro.xml.dtd import parse_dtd

    encoder = DTDEncoder(
        parse_dtd("<!ELEMENT r (s?, t*) > <!ELEMENT s #PCDATA > <!ELEMENT t #PCDATA >"),
        abstract_values=True,
    )
    v0, v1, end = Tree("v0"), Tree("v1"), Tree("#")
    t = lambda *children: Tree("t", (Tree("pcdata", children),))
    tree = Tree(
        "r",
        (
            Tree(
                "(s?,t*)",
                (
                    Tree("s?", (Tree("#", (v0,)),)),
                    Tree("t*", (t(v0, v1), Tree("t*", (t(v1), Tree("t*", (end, end)))))),
                ),
            ),
        ),
    )
    document = encoder.decode(tree, {0: "a", 1: "b", 2: "c", 3: "d"})
    assert document == element("r", element("t", text("b")), element("t", text("d")))
