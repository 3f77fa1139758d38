"""The strict JSON reader/writer: positions, hostile inputs, round-trips."""

import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EncodingError, ParseError
from repro.json.jsonio import (
    JsonLinesParser,
    iter_json_documents,
    parse_json,
    serialize_json,
)


def position_of(error: ParseError) -> tuple:
    """The ``(line, column)`` a parse error names."""
    message = str(error)
    assert message.startswith("JSON error at line "), message
    line, column = message.split("line ")[1].split(":")[0].split(", column ")
    return int(line), int(column)


class TestParseBasics:
    def test_all_value_kinds(self):
        assert parse_json('{"a": [1, -2.5, "x", true, false, null]}') == {
            "a": [1, -2.5, "x", True, False, None]
        }

    def test_bytes_input(self):
        assert parse_json(b'{"k": "caf\xc3\xa9"}') == {"k": "café"}

    def test_invalid_utf8_bytes(self):
        with pytest.raises(ParseError, match="invalid UTF-8") as caught:
            parse_json(b'{"k":\n "caf\xc3\xa9\xff"}')
        # Columns count characters, not bytes: the é is one.
        assert position_of(caught.value) == (2, 7)

    def test_integers_stay_int_and_floats_float(self):
        value = parse_json("[0, -7, 1.5, 1e3, 0.0]")
        assert value == [0, -7, 1.5, 1000.0, 0.0]
        assert [type(v) for v in value] == [int, int, float, float, float]

    def test_unicode_escapes_and_surrogate_pairs(self):
        assert parse_json('"\\u00e9\\ud83d\\ude00"') == "é\U0001f600"


class TestParseRejections:
    @pytest.mark.parametrize(
        "source, fragment",
        [
            ("", "1, column 1: Expecting value"),
            ("{", "1, column 2: Expecting property name enclosed in double quotes"),
            ('{"a": 1', "1, column 8: Expecting ',' delimiter"),
            ("[1, 2", "1, column 6: Expecting ',' delimiter"),
            ('"abc', "1, column 1: Unterminated string starting"),
            ('{"a" 1}', "1, column 6: Expecting ':' delimiter"),
            ("{1: 2}", "1, column 2: Expecting property name enclosed in double quotes"),
            ("[1 2]", "1, column 4: Expecting ',' delimiter"),
            ('{"a": 1 "b": 2}', "1, column 9: Expecting ',' delimiter"),
            ("01", "1, column 2: Extra data"),
            ("1.", "1, column 2: Extra data"),
            ("1e", "1, column 2: Extra data"),
            ("-", "1, column 1: Expecting value"),
            ("1e999", "1, column 1: number '1e999' overflows to infinity"),
            ("[0, -1e400]", "1, column 5: number '-1e400' overflows to infinity"),
            ("NaN", "1, column 1: non-finite number NaN is outside the modeled"),
            ("Infinity", "1, column 1: non-finite number Infinity is outside"),
            ("[-Infinity]", "1, column 2: non-finite number -Infinity is outside"),
            ("{} {}", "1, column 4: Extra data"),
            ("1 2", "1, column 3: Extra data"),
            ('"\\x"', "1, column 2: Invalid \\escape"),
            ('"\\u12"', "1, column 3: Invalid \\uXXXX escape"),
            ('"\\ud800"', "1, column 1: lone surrogate U+D800 is not a character"),
            ('"\\udc00"', "1, column 1: lone surrogate U+DC00 is not a character"),
            ('"\\ud800\\u0041"', "1, column 1: lone surrogate U+D800"),
            ('["ok", "\\uD83D\\uDE00\\udbff"]', "1, column 8: lone surrogate U+DBFF"),
            ('"\x01"', "1, column 2: Invalid control character"),
            ('["\x00"]', "1, column 3: Invalid control character"),
            ('{"k": "\ud800"}', "1, column 7: lone surrogate U+D800 is not a character"),
            ("\ufeff{}", "1, column 1: Expecting value"),
            # RFC 8259 digits are ASCII; str.isdigit would take these.
            ("[\u0663]", "1, column 2: Expecting value"),
            ("[\u00b2]", "1, column 2: Expecting value"),
        ],
    )
    def test_rejected_with_parse_error(self, source, fragment):
        with pytest.raises(ParseError) as caught:
            parse_json(source)
        assert str(caught.value).startswith("JSON error at line " + fragment)

    def test_escaped_backslash_before_u_is_not_an_escape(self):
        assert parse_json('"\\\\ud800"') == "\\ud800"
        assert parse_json('["\\ud83d\\ude00"]') == ["\U0001f600"]

    def test_escaped_backslash_does_not_hide_a_lone_surrogate(self):
        # The text after an escaped backslash looks like a pair's half.
        with pytest.raises(ParseError, match="column 1: lone surrogate U[+]DC00"):
            parse_json(r'"\\uD800\uDC00"')
        with pytest.raises(ParseError, match="column 1: lone surrogate U[+]D800"):
            parse_json(r'"\uD800\uD800\uDC00"')
        assert parse_json(r'"\\\uD83D\uDE00"') == "\\\U0001f600"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="integer conversion has no digit limit on this Python",
    )
    def test_overlong_integer_is_a_parse_error(self):
        with pytest.raises(ParseError) as caught:
            parse_json('{"user": ' + "9" * 5000 + "}")
        assert str(caught.value) == (
            "JSON error at line 1, column 10: integer of 5000 digits is too "
            "long to convert"
        )

    def test_positions_count_lines_and_columns(self):
        with pytest.raises(ParseError) as caught:
            parse_json('{\n  "a": [1,\n    2,, 3]}')
        assert position_of(caught.value) == (3, 7)

    def test_duplicate_key_offset_points_at_second_key(self):
        with pytest.raises(ParseError) as caught:
            parse_json('{"a": 1, "a": 2}')
        assert "duplicate object key 'a'" in str(caught.value)
        assert position_of(caught.value) == (1, 10)

    def test_first_duplicate_in_text_order_is_named(self):
        # The scanner completes the inner object first; the error still
        # names the duplicate that comes first in the text.
        with pytest.raises(ParseError) as caught:
            parse_json('{"a": 1, "a": {"b": 1, "b": 2}}')
        assert "duplicate object key 'a'" in str(caught.value)
        assert position_of(caught.value) == (1, 10)

    def test_escaped_keys_are_the_same_key(self):
        with pytest.raises(ParseError, match="duplicate object key 'a'"):
            parse_json('{"a": 1, "\\u0061": 2}')

    def test_depth_cap_is_a_parse_error_not_a_recursion_error(self):
        hostile = "[" * 5000
        with pytest.raises(ParseError, match="nesting depth exceeds"):
            parse_json(hostile)

    def test_depth_cap_boundary(self):
        # A value inside 200 containers is modeled, one inside 201 is not.
        assert parse_json("[" * 200 + "1" + "]" * 200) is not None
        assert parse_json("[" * 199 + '{"k": {}}' + "]" * 199) is not None
        assert parse_json("[" * 200 + "{}" + "]" * 200) is not None
        with pytest.raises(ParseError) as caught:
            parse_json("[" * 201 + "1" + "]" * 201)
        assert "nesting depth exceeds the modeled maximum of 200" in str(
            caught.value
        )
        assert position_of(caught.value) == (1, 202)
        with pytest.raises(ParseError, match="nesting depth exceeds"):
            parse_json("[" * 199 + '{"k": {"j": 1}}' + "]" * 199)

    def test_brackets_inside_strings_do_not_nest(self):
        assert parse_json('["' + "[" * 300 + '"]') == ["[" * 300]

    def test_error_positions_are_exact(self):
        with pytest.raises(ParseError) as caught:
            parse_json('{"key": bad}')
        assert position_of(caught.value) == (1, 9)

    def test_wide_documents_past_the_bracket_count_parse(self):
        # More than 200 brackets, none deeper than 2: the depth scan
        # clears them without the token-by-token locator.
        value = [{"id": index, "tags": ["a", "]"]} for index in range(1000)]
        assert parse_json(serialize_json(value)) == value
        text = "[" + "[], " * 300 + r'"\\", "\"[", "]"]'
        assert parse_json(text) == [[]] * 300 + ["\\", '"[', "]"]

    def test_empty_containers_at_the_cap_parse(self):
        # 201 containers hold no value inside 201 of them.
        assert parse_json("[" * 201 + "]" * 201) is not None
        assert parse_json("[" * 200 + "{}" + "]" * 200) is not None

    def test_deep_nesting_after_escaped_quotes_is_refused(self):
        with pytest.raises(ParseError) as caught:
            parse_json('["\\"", ' + "[" * 201 + "1" + "]" * 202)
        assert "nesting depth exceeds" in str(caught.value)
        assert position_of(caught.value) == (1, 208)


#: Strings that never close, behind each check that sends text to the
#: token locator: a quadratic scan takes minutes on these, a linear one
#: milliseconds.
_UNCLOSED = '"' + '\\"' * 100_000
_SLOW_PATH_TEXTS = [
    _UNCLOSED + "\\ud800",
    "[" * 201 + _UNCLOSED,
    "[" * 201 + _UNCLOSED + "\\",
    _UNCLOSED + "[" * 201,
    "[" + '"\\"", ' * 50_000 + "\ud800" + "[" * 201,
]


@pytest.mark.parametrize("text", _SLOW_PATH_TEXTS, ids=range(len(_SLOW_PATH_TEXTS)))
def test_hostile_text_is_refused_promptly(text):
    started = time.perf_counter()
    with pytest.raises(ParseError):
        parse_json(text)
    parser = JsonLinesParser()
    with pytest.raises(ParseError, match="^JSON error at line 2, "):
        parser.feed(b'{"a": 1}\n' + text.encode("utf-8", "surrogatepass"))
        parser.close()
    assert parser.ready() == [{"a": 1}]
    assert time.perf_counter() - started < 2.0


class TestSerialize:
    def test_single_line_and_insertion_order(self):
        value = {"b": [1, {"a": None}], "a": True}
        assert serialize_json(value) == '{"b": [1, {"a": null}], "a": true}'

    def test_control_characters_escape(self):
        assert serialize_json("a\x01b\n") == '"a\\u0001b\\n"'

    def test_non_finite_rejected(self):
        with pytest.raises(EncodingError, match="non-finite"):
            serialize_json(float("inf"))

    def test_unmodeled_type_rejected(self):
        with pytest.raises(EncodingError, match="outside the modeled"):
            serialize_json({"a": object()})

    def test_non_string_key_rejected(self):
        with pytest.raises(EncodingError, match="not a string"):
            serialize_json({1: "a"})

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="integer conversion has no digit limit on this Python",
    )
    def test_overlong_integer_rejected(self):
        with pytest.raises(EncodingError, match="integer is too long to render"):
            serialize_json([10**5000])


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**12), max_value=10**12)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


hostile_texts = st.lists(
    st.sampled_from(
        ["{", "}", "[", "]", ",", ":", '"', "\\", "u", "d8", "dc", "00", "1",
         "-", ".", "e", " ", "\n", "true", "NaN", "\ud800", "[" * 300]
    ),
    max_size=30,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(hostile_texts)
def test_any_text_is_a_value_or_a_parse_error(source):
    """The pre-scan and the locator run on arbitrary text: they may only
    ever answer a value or a ParseError, never crash or recurse."""
    try:
        parse_json(source)
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_roundtrip_property(value):
    """parse(serialize(v)) == v for every modeled value."""
    assert parse_json(serialize_json(value)) == value


class TestJsonLinesParser:
    def test_feed_ready_close_contract(self):
        parser = JsonLinesParser()
        parser.feed(b'{"a": 1}\n[1, ')
        assert parser.ready() == [{"a": 1}]
        parser.feed(b"2]\n\n")
        parser.feed('{"b": "x"}')  # str fragments are accepted
        assert parser.ready() == [[1, 2]]
        assert parser.close() == [{"b": "x"}]
        assert parser.documents_seen == 3

    def test_blank_lines_skipped(self):
        parser = JsonLinesParser()
        parser.feed(b"\n  \n1\n\n")
        assert parser.close() == [1]

    def test_feed_after_close_rejected(self):
        parser = JsonLinesParser()
        parser.close()
        with pytest.raises(ParseError, match="closed stream parser"):
            parser.feed(b"1\n")

    def test_errors_carry_the_stream_line(self):
        parser = JsonLinesParser()
        parser.feed(b"1\n\n2\n")
        parser.ready()
        with pytest.raises(ParseError) as caught:
            parser.feed(b'[1]\n{"a": 1, "a": 2}\n')
        assert str(caught.value) == (
            "JSON error at line 5, column 10: duplicate object key 'a'"
        )

    def test_lone_surrogate_in_a_str_fragment_is_a_parse_error(self):
        parser = JsonLinesParser()
        with pytest.raises(ParseError, match="line 2, column 3: invalid UTF-8"):
            parser.feed('1\n["\ud800"]\n')

    def test_invalid_utf8_names_the_stream_line(self):
        parser = JsonLinesParser()
        with pytest.raises(ParseError) as caught:
            parser.feed(b'1\n"ok"\n["\xed\xa0\x80"]\n')
        assert str(caught.value) == (
            "JSON error at line 3, column 3: invalid UTF-8"
        )

    def test_split_across_tiny_fragments(self):
        parser = JsonLinesParser()
        for byte in b'{"key": [1, 2]}\n"tail"':
            parser.feed(bytes([byte]))
        assert parser.ready() == [{"key": [1, 2]}]
        assert parser.close() == ["tail"]


def test_iter_json_documents_from_path(tmp_path):
    stream = tmp_path / "docs.jsonl"
    stream.write_text('{"a": 1}\n[true, null]\n"x"\n')
    assert list(iter_json_documents(stream)) == [{"a": 1}, [True, None], "x"]


def test_iter_json_documents_small_chunks(tmp_path):
    stream = tmp_path / "docs.jsonl"
    stream.write_text("\n".join(serialize_json([i] * i) for i in range(20)))
    documents = list(iter_json_documents(stream, chunk_bytes=3))
    assert documents == [[i] * i for i in range(20)]
