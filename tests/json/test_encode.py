"""The ranked JSON encoding: structure, round-trips, validation."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EncodingError
from repro.json.encode import (
    JsonEncoder,
    json_alphabet,
    member_label,
)
from repro.json.jsonio import serialize_json
from repro.trees.tree import Tree
from repro.xml.encode import VALUE_LABELS, abstract_value_of


def term(label, *children):
    return Tree(label, tuple(children))


class TestMemberLabels:
    def test_valid_keys(self):
        assert member_label("user") == "m:user"
        assert member_label("a.b-c_d") == "m:a.b-c_d"

    @pytest.mark.parametrize("key", ["", "1x", "a b", "a:b", 'a"b', "é"])
    def test_invalid_keys_rejected(self, key):
        with pytest.raises(EncodingError, match="outside the modeled subset"):
            member_label(key)

    def test_alphabet_contains_keys_at_rank_one(self):
        alphabet = json_alphabet(("user", "tags"))
        assert alphabet.rank("m:user") == 1
        assert alphabet.rank("m:tags") == 1
        assert alphabet.rank("mems") == 2
        assert alphabet.rank("#") == 0


class TestEncodeStructure:
    def test_scalars(self):
        encoder = JsonEncoder()
        assert encoder.encode(True) == term("true")
        assert encoder.encode(False) == term("false")
        assert encoder.encode(None) == term("null")
        assert encoder.encode("hi") == term(
            "str", term(abstract_value_of("hi"))
        )
        assert encoder.encode(7) == term("num", term(abstract_value_of("7")))

    @pytest.mark.parametrize(
        "number", [0, -7, 10**30, 0.0, -0.0, 5e-324, 1.5, 1e16, 1e-7, 1e300]
    )
    def test_numbers_abstract_through_their_rendered_text(self, number):
        text = serialize_json(number)
        assert JsonEncoder().encode(number) == term("num", term(abstract_value_of(text)))

    def test_unrenderable_numbers_are_encoding_errors(self):
        numbers = [float("nan"), float("-inf")]
        if hasattr(sys, "get_int_max_str_digits"):
            numbers.append(10**5000)
        for number in numbers:
            with pytest.raises(EncodingError):
                JsonEncoder().encode({"n": [number]})

    def test_bool_is_not_encoded_as_number(self):
        # bool is an int subclass; True must become the true constant.
        encoder = JsonEncoder()
        assert encoder.encode(True).label == "true"

    def test_container_spines(self):
        encoder = JsonEncoder()
        assert encoder.encode([]) == term("arr", term("#"))
        assert encoder.encode({}) == term("obj", term("#"))
        two = encoder.encode([True, None])
        assert two == term(
            "arr", term("items", term("true"), term("items", term("null"), term("#")))
        )
        obj = encoder.encode({"a": True})
        assert obj == term(
            "obj", term("mems", term("m:a", term("true")), term("#"))
        )

    def test_encoder_holds_nothing_after_distinct_keys(self):
        encoder = JsonEncoder()
        for index in range(1000):
            tree = encoder.encode({f"k{index}": {"tags": []}})
            assert tree.children[0].children[0].label == f"m:k{index}"
        assert vars(encoder) == {}

    def test_long_array_is_iterative(self):
        # Far past the interpreter recursion limit: the cons spines are
        # built and consumed iteratively, so only *nesting* recurses.
        encoder = JsonEncoder()
        document = list(range(2500))
        tree, values = encoder.encode_with_values(document)
        assert len(values) == 2500
        assert encoder.decode(tree, values) == document

    def test_values_keyed_by_slot_ordinal_in_document_order(self):
        encoder = JsonEncoder()
        tree, values = encoder.encode_with_values({"a": "x", "b": [True, 5]})
        slots = [
            node for _, node in tree.subtrees() if node.label in VALUE_LABELS
        ]
        assert len(slots) == 2
        assert values == {0: "x", 1: 5}


def test_value_leaves_under_ignored_children_keep_their_ordinals():
    """``true(str(v0))`` decodes to ``true``; its value leaf still takes
    ordinal 0, so the next string reads ordinal 1."""
    tree = term(
        "arr",
        term(
            "items",
            term("true", term("str", term("v0"))),
            term("items", term("str", term("v1")), term("#")),
        ),
    )
    assert JsonEncoder().decode(tree, {0: "a", 1: "b"}) == [True, "b"]


class TestDecodeValidation:
    def test_unknown_symbol(self):
        with pytest.raises(EncodingError, match="unknown JSON encoding"):
            JsonEncoder().decode(term("mystery"))

    def test_bad_spine_terminator(self):
        bad = term("arr", term("items", term("true"), term("true")))
        with pytest.raises(EncodingError, match="ends in 'true'"):
            JsonEncoder().decode(bad)

    def test_duplicate_decoded_keys(self):
        bad = term(
            "obj",
            term(
                "mems",
                term("m:a", term("true")),
                term("mems", term("m:a", term("null")), term("#")),
            ),
        )
        with pytest.raises(EncodingError, match="duplicate key 'a'"):
            JsonEncoder().decode(bad)

    def test_member_must_be_prefixed(self):
        bad = term("obj", term("mems", term("true"), term("#")))
        with pytest.raises(EncodingError, match="not a rank-1 m:KEY"):
            JsonEncoder().decode(bad)

    def test_missing_values_default(self):
        encoder = JsonEncoder()
        tree = encoder.encode({"s": "gone", "n": 42})
        assert encoder.decode(tree) == {"s": "", "n": 0}


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**9), max_value=10**9)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=10),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True),
        children,
        max_size=4,
    ),
    max_leaves=16,
)


@settings(max_examples=150, deadline=None)
@given(json_values)
def test_roundtrip_property(document):
    """decode(encode(d)) == d for every modeled document."""
    assert JsonEncoder().roundtrip(document) == document
