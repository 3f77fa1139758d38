"""Tests for the XML reader/writer."""

import pytest

from repro.errors import ParseError
from repro.xml.unranked import element, text
from repro.xml.xmlio import parse_xml, serialize_xml


class TestParsing:
    def test_simple_element(self):
        assert parse_xml("<a/>") == element("a")

    def test_nested(self):
        assert parse_xml("<a><b/><c/></a>") == element("a", element("b"), element("c"))

    def test_text_content(self):
        assert parse_xml("<a>hello</a>") == element("a", text("hello"))

    def test_mixed_content(self):
        got = parse_xml("<a>x<b/>y</a>")
        assert got == element("a", text("x"), element("b"), text("y"))

    def test_whitespace_only_text_dropped(self):
        assert parse_xml("<a>\n  <b/>\n</a>") == element("a", element("b"))

    def test_entities(self):
        assert parse_xml("<a>x &amp; y &lt;z&gt; &#65;</a>") == element(
            "a", text("x & y <z> A")
        )

    def test_comments_and_declarations_skipped(self):
        source = """<?xml version="1.0"?>
        <!DOCTYPE a>
        <!-- comment -->
        <a><!-- inner --><b/></a>"""
        assert parse_xml(source) == element("a", element("b"))

    def test_attributes_rejected_by_default(self):
        with pytest.raises(ParseError):
            parse_xml('<a x="1"/>')

    def test_attributes_ignored_when_asked(self):
        assert parse_xml('<a x="1"><b y="2"/></a>', ignore_attributes=True) == element(
            "a", element("b")
        )

    def test_cdata_and_line_ends(self):
        assert parse_xml("<a>x\r\ny <![CDATA[<&>]]></a>") == element(
            "a", text("x\ny <&>")
        )

    def test_text_is_read_as_text_and_bytes_by_their_declaration(self):
        declared = '<?xml version="1.0" encoding="ISO-8859-1"?><a>é</a>'
        assert parse_xml(declared) == element("a", text("é"))
        assert parse_xml(declared.encode("latin-1")) == element("a", text("é"))
        assert parse_xml("<a>é</a>".encode()) == element("a", text("é"))

    @pytest.mark.parametrize(
        "encoding, reason",
        [
            ("Shift_JIS", "multi-byte encodings are not supported"),
            ("x-no", "unknown encoding: x-no"),
        ],
    )
    def test_unreadable_declared_encoding_is_a_parse_error(
        self, encoding, reason
    ):
        declared = f'<?xml version="1.0" encoding="{encoding}"?><a/>'
        with pytest.raises(ParseError, match=f"unsupported encoding: {reason}"):
            parse_xml(declared.encode("ascii"))

    def test_lone_surrogate_is_a_parse_error(self):
        with pytest.raises(ParseError, match="lone surrogate U[+]D800"):
            parse_xml("<a>\ud800</a>")

    def test_deep_documents_parse(self):
        depth = 100_000
        document = parse_xml("<d>" * depth + "</d>" * depth)
        for _ in range(depth - 1):
            (document,) = document.children
        assert document == element("d")

    def test_errors(self):
        for bad in ["<a>", "<a></b>", "<a><b></a></b>", "<a/><b/>", "junk"]:
            with pytest.raises(ParseError):
                parse_xml(bad)


class TestSerialization:
    def test_roundtrip(self):
        doc = element(
            "LIBRARY",
            element("BOOK", element("TITLE", text("T & A")), element("YEAR", text("1999"))),
        )
        assert parse_xml(serialize_xml(doc)) == doc

    def test_empty_element_self_closes(self):
        assert serialize_xml(element("a")) == "<a/>"

    def test_inline_text(self):
        assert serialize_xml(element("a", text("hi"))) == "<a>hi</a>"

    def test_escaping(self):
        out = serialize_xml(element("a", text("x<y&z")))
        assert "&lt;" in out and "&amp;" in out
        assert parse_xml(out) == element("a", text("x<y&z"))
