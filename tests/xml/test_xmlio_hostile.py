"""Hostile-corpus regressions for the XML reader.

Historical bugs, all found by feeding adversarial documents:

* malformed numeric character references (``&#xZZ;``, ``&#;``, code
  points past U+10FFFF, surrogates) escaped as raw ``ValueError`` /
  ``OverflowError`` instead of :class:`~repro.errors.ParseError`;
* a ``<!DOCTYPE`` declaration with an internal subset (``[ ... ]``)
  desynchronized a hand-written reader, which matched the first ``>``
  instead of the subset's closing ``]>``;
* characters XML forbids (``&#0;``, raw control characters, lone
  surrogates) and ``]]>`` in text were accepted on one path and refused
  on another.

Each must raise a parse error that names its line and column, or parse
to the expected tree.
"""

import time
from xml.parsers import expat

import pytest

from repro.errors import ParseError
from repro.serve import iter_stream_documents
from repro.xml.unranked import element, text
from repro.xml.xmlio import parse_xml


def parse_error(source, **options) -> str:
    with pytest.raises(ParseError) as caught:
        parse_xml(source, **options)
    return str(caught.value)


class TestNumericCharacterReferences:
    def test_valid_references_still_work(self):
        assert parse_xml("<a>&#65;&#x42;</a>").children[0].text == "AB"

    def test_hex_reference_uppercase_x(self):
        # XML spells a hexadecimal reference '&#x' only (XML 1.0 §4.1).
        assert parse_error("<a>&#X41;</a>") == (
            "XML error at line 1, column 5: not well-formed (invalid token)"
        )

    @pytest.mark.parametrize(
        "body, reason, column",
        [
            ("&#xZZ;", "not well-formed (invalid token)", 6),
            ("&#;", "not well-formed (invalid token)", 5),
            ("&#x;", "not well-formed (invalid token)", 6),
            ("&#12a;", "not well-formed (invalid token)", 7),
            ("&#x110000;", "reference to invalid character number", 3),
            ("&#1114112;", "reference to invalid character number", 3),
            # A reference huge enough that chr() would raise
            # OverflowError if reached (the historical crash).
            ("&#x999999999999999999;", "reference to invalid character number", 3),
            ("&#xD800;", "reference to invalid character number", 3),
            ("&#xDFFF;", "reference to invalid character number", 3),
            ("&#55296;", "reference to invalid character number", 3),
            ("&nosuch;", "undefined entity", 3),
            ("&unterminated", "not well-formed (invalid token)", 16),
        ],
    )
    def test_hostile_references_raise_parse_errors(self, body, reason, column):
        assert parse_error(f"<a>{body}</a>") == (
            f"XML error at line 1, column {column}: {reason}"
        )

    def test_error_offset_points_at_the_reference(self):
        assert "line 1, column 11" in parse_error("<root>ok&#xZZ;</root>")
        assert "line 2, column 7" in parse_error("<root>\n  ok&#xZZ;</root>")


class TestForbiddenCharacters:
    @pytest.mark.parametrize(
        "body, reason, column",
        [
            ("&#0;", "reference to invalid character number", 3),
            ("\x01", "not well-formed (invalid token)", 3),
            ("x]]>y", "not well-formed (invalid token)", 6),
        ],
    )
    def test_forbidden_text_raises_parse_errors(self, body, reason, column):
        assert parse_error(f"<a>{body}</a>") == (
            f"XML error at line 1, column {column}: {reason}"
        )

    def test_lone_surrogate_in_text_raises_a_parse_error(self):
        assert parse_error("<a>\n<b>xy\ud800</b></a>") == (
            "XML error at line 2, column 5: lone surrogate U+D800 is not "
            "a character"
        )

    def test_lone_surrogate_in_a_stream_raises_a_parse_error(self):
        with pytest.raises(ParseError, match="lone surrogate U[+]DC00"):
            list(iter_stream_documents("<batch><a>\udc00</a></batch>"))

    def test_an_earlier_error_wins_over_a_lone_surrogate(self):
        assert "undefined entity" in parse_error("<a>&nosuch;\ud800</a>")


DOCTYPE_DOCUMENTS = {
    # Plain DOCTYPE, no subset (always worked).
    "<!DOCTYPE a><a><b/></a>": element("a", element("b")),
    # Internal subset: the first '>' is inside the subset.
    "<!DOCTYPE a [ <!ELEMENT a (b)> ]><a><b/></a>": element("a", element("b")),
    # Multiple declarations in the subset.
    (
        "<!DOCTYPE a [ <!ELEMENT a (b*)> <!ELEMENT b EMPTY> ]>"
        "<a><b/><b/></a>"
    ): element("a", element("b"), element("b")),
    # Quoted '>' and ']' inside subset literals.
    '<!DOCTYPE a [ <!ATTLIST b id CDATA "x>y]z"> ]><a><b/></a>': element(
        "a", element("b")
    ),
    # Comments and processing instructions inside the subset.
    "<!DOCTYPE a [ <!-- a comment with > and ] --> <?pi with > ?> ]><a/>": (
        element("a")
    ),
}


class TestDoctypeInternalSubsets:
    @pytest.mark.parametrize("source", list(DOCTYPE_DOCUMENTS))
    def test_subset_documents_parse(self, source):
        document = parse_xml(source, ignore_attributes=True)
        assert document == DOCTYPE_DOCUMENTS[source]

    @pytest.mark.parametrize(
        "source, reason, column",
        [
            ("<!DOCTYPE a [ <!ELEMENT a (b)>", "no element found", 30),
            ("<!DOCTYPE a [ ]<a/>", "syntax error", 15),
            ('<!DOCTYPE a [ <!ATTLIST b x CDATA "unclosed> ]><a/>',
             "unclosed token", 34),
            ("<!DOCTYPE a ", "no element found", 12),
        ],
    )
    def test_malformed_subsets_raise_parse_errors(self, source, reason, column):
        assert parse_error(source) == (
            f"XML error at line 1, column {column}: {reason}"
        )

    def test_subset_does_not_leak_into_content(self):
        # The historical failure mode: everything after the first '>'
        # of the subset was parsed as document content.
        document = parse_xml(
            "<!DOCTYPE root [ <!ENTITY % x 'y'> ]><root>text</root>",
            ignore_attributes=True,
        )
        assert document == element("root", text("text"))
        # A parameter entity declaration needs the space before '%'.
        assert "line 1, column 25" in parse_error(
            "<!DOCTYPE root [ <!ENTITY% x 'y'> ]><root>text</root>"
        )

    def test_internal_entities_expand(self):
        document = parse_xml(
            '<!DOCTYPE a [ <!ENTITY who "ada"> ]><a>by &who;</a>'
        )
        assert document == element("a", text("by ada"))


class TestEntityAttacks:
    @pytest.mark.skipif(
        expat.version_info < (2, 4, 0),
        reason="expat bounds entity amplification from 2.4.0 on",
    )
    def test_billion_laughs_raises_a_parse_error(self):
        declarations = ['<!ENTITY lol0 "lol">'] + [
            f'<!ENTITY lol{level} "{f"&lol{level - 1};" * 10}">'
            for level in range(1, 11)
        ]
        source = (
            f"<!DOCTYPE lolz [{''.join(declarations)}]><lolz>&lol10;</lolz>"
        )
        started = time.perf_counter()
        message = parse_error(source)
        assert "amplification" in message
        assert time.perf_counter() - started < 10

    def test_external_entity_content_never_enters_the_tree(self, tmp_path):
        secret = tmp_path / "secret.txt"
        secret.write_text("SECRET")
        uri = secret.as_uri()
        message = parse_error(
            f'<!DOCTYPE a [ <!ENTITY x SYSTEM "{uri}"> ]><a>&x;</a>'
        )
        assert message.startswith("XML error at line 1, column ")
        assert "is not read" in message and "SECRET" not in message

    def test_external_dtd_is_not_read(self, tmp_path):
        dtd = tmp_path / "external.dtd"
        dtd.write_text('<!ENTITY secret "SECRET">')
        source = f'<!DOCTYPE a SYSTEM "{dtd.as_uri()}"><a>x</a>'
        assert parse_xml(source) == element("a", text("x"))
        message = parse_error(source.replace("x</a>", "&secret;</a>"))
        assert message.endswith("undefined entity &secret;")
