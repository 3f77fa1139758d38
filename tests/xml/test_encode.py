"""Tests for the DTD-based encoding (Section 10)."""

import itertools
import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.codec import load_transformation
from repro.errors import (
    AmbiguousContentModelError,
    DTDError,
    EncodingError,
    ReproError,
)
from repro.trees.tree import parse_term
from repro.workloads.library import library_document, library_input_dtd
from repro.workloads.xmlflip import xmlflip_document, xmlflip_input_dtd
from repro.xml.dtd import DTD, ElementRe, Empty, Seq, parse_dtd
from repro.xml.encode import DTDEncoder
from repro.xml.pipeline import XML_BUNDLE_FORMAT
from repro.xml.unranked import PCDATA_LABEL, element, text

from tests.xml.span_parser import REFUSAL, SpanParserEncoder, lookahead_witness


class TestPaperFlipEncoding:
    """The Introduction's example: root(a,a,b) and its printed encoding."""

    def test_exact_paper_tree(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        got = encoder.encode(xmlflip_document(2, 1))
        expected = parse_term(
            'root("(a*,b*)"(a*(a, a*(a, a*(#, #))), b*(b, b*(#, #))))'
        )
        assert got == expected

    def test_empty_lists(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        got = encoder.encode(xmlflip_document(0, 0))
        assert got == parse_term('root("(a*,b*)"(a*(#, #), b*(#, #)))')

    def test_compact_lists(self):
        encoder = DTDEncoder(xmlflip_input_dtd(), compact_lists=True)
        got = encoder.encode(xmlflip_document(1, 0))
        assert got == parse_term('root("(a*,b*)"(a*(a, #), #))')

    def test_alphabet(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        alphabet = encoder.alphabet
        assert alphabet.rank("root") == 1
        assert alphabet.rank("(a*,b*)") == 2
        assert alphabet.rank("a*") == 2
        assert alphabet.rank("a") == 0
        assert alphabet.rank("#") == 0


class TestPaperLibraryEncoding:
    """Section 10: the first library DTD with the choice content model."""

    def test_choice_encoding(self):
        dtd = parse_dtd(
            """
            <!ELEMENT LIBRARY (BOOK*) >
            <!ELEMENT BOOK ((AUTHOR, TITLE, YEAR?) | TITLE) >
            <!ELEMENT AUTHOR #PCDATA >
            <!ELEMENT TITLE #PCDATA >
            <!ELEMENT YEAR #PCDATA >
            """
        )
        encoder = DTDEncoder(dtd)
        doc = element(
            "LIBRARY",
            element("BOOK", element("AUTHOR", text("x")), element("TITLE", text("y"))),
            element("BOOK", element("TITLE", text("z"))),
        )
        encoded = encoder.encode(doc)
        # First book takes the (AUTHOR,TITLE,YEAR?) branch with YEAR? = #.
        book1 = encoded.children[0].children[0]
        assert book1.label == "BOOK"
        alt = book1.children[0]
        assert alt.label == "((AUTHOR,TITLE,YEAR?)|TITLE)"
        assert alt.children[0].label == "(AUTHOR,TITLE,YEAR?)"
        assert encoder.roundtrip(doc) == doc


class TestFusion:
    def test_fused_book_rank_three(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)
        encoded = encoder.encode(library_document(1))
        book = encoded.children[0].children[0]
        assert book.label == "BOOK"
        assert book.arity == 3  # fused (AUTHOR, TITLE, YEAR)

    def test_unfused_book_rank_one(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=False)
        encoded = encoder.encode(library_document(1))
        book = encoded.children[0].children[0]
        assert book.arity == 1
        assert book.children[0].label == "(AUTHOR,TITLE,YEAR)"


class TestValues:
    def test_values_attached_to_pcdata_slots(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)
        tree, values = encoder.encode_with_values(library_document(1))
        assert sorted(values.values()) == ["1991", "author1", "title1"]

    def test_value_roundtrip(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)
        doc = library_document(3)
        assert encoder.roundtrip(doc) == doc

    @pytest.mark.parametrize("fuse", [True, False])
    def test_text_less_pcdata_keeps_later_values_in_their_slots(self, fuse):
        encoder = DTDEncoder(library_input_dtd(), fuse=fuse)
        doc = element(
            "LIBRARY",
            element(
                "BOOK",
                element("AUTHOR", text(None)),
                element("TITLE", text("t")),
                element("YEAR", text("y")),
            ),
        )
        _tree, values = encoder.encode_with_values(doc)
        assert sorted(values.values()) == ["t", "y"]
        assert encoder.roundtrip(doc) == doc

    def test_decode_without_values_gives_placeholders(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)
        tree = encoder.encode(library_document(1))
        decoded = encoder.decode(tree)
        texts = [n for _, n in decoded.subtrees() if n.is_text]
        assert all(n.text is None for n in texts)


class TestErrors:
    def test_wrong_root(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        with pytest.raises(EncodingError):
            encoder.encode(element("zzz"))

    def test_invalid_children(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        with pytest.raises(EncodingError):
            # b before a violates (a*, b*).
            encoder.encode(element("root", element("b"), element("a")))

    def test_non_empty_empty_element(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        with pytest.raises(EncodingError):
            encoder.encode(element("root", element("a", element("a"))))

    def test_ambiguous_model_detected(self):
        dtd = parse_dtd(
            """
            <!ELEMENT r (a*, a*) >
            <!ELEMENT a EMPTY >
            """
        )
        with pytest.raises(AmbiguousContentModelError):
            DTDEncoder(dtd)

    def test_nested_empty_is_refused_when_the_encoder_is_built(self):
        dtd = DTD("r", {"r": Seq((Empty(), ElementRe("a"))), "a": Empty()})
        with pytest.raises(DTDError, match=r"^cannot encode against Empty\(\)$"):
            DTDEncoder(dtd)

    @pytest.mark.parametrize(
        "fuse,compact,abstract", list(itertools.product((False, True), repeat=3))
    )
    def test_element_named_pcdata_is_reserved(self, fuse, compact, abstract):
        dtd = parse_dtd("<!ELEMENT r (pcdata*) > <!ELEMENT pcdata EMPTY >")
        with pytest.raises(DTDError, match=r"^element name 'pcdata' is reserved"):
            DTDEncoder(
                dtd, fuse=fuse, compact_lists=compact, abstract_values=abstract
            )


class TestRoundtrips:
    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (0, 2), (3, 2)])
    def test_xmlflip_roundtrip(self, fuse, compact, n, m):
        encoder = DTDEncoder(
            xmlflip_input_dtd(), fuse=fuse, compact_lists=compact
        )
        doc = xmlflip_document(n, m)
        assert encoder.roundtrip(doc) == doc

    @pytest.mark.parametrize("count", [0, 1, 2, 4])
    def test_library_roundtrip(self, count):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)
        assert encoder.roundtrip(library_document(count)) == library_document(count)

    def test_optional_and_plus(self):
        dtd = parse_dtd(
            """
            <!ELEMENT r (a+, b?) >
            <!ELEMENT a EMPTY >
            <!ELEMENT b EMPTY >
            """
        )
        encoder = DTDEncoder(dtd)
        for doc in [
            element("r", element("a")),
            element("r", element("a"), element("a"), element("b")),
        ]:
            assert encoder.roundtrip(doc) == doc
        with pytest.raises(EncodingError):
            encoder.encode(element("r", element("b")))


def _words(length):
    alphabet = ("a", "b", PCDATA_LABEL)
    for size in range(length + 1):
        yield from itertools.product(alphabet, repeat=size)


def _outcome(encoder, document):
    try:
        tree, values = encoder.encode_with_values(document)
    except ReproError as error:
        return (type(error).__name__, str(error))
    return ("tree", str(tree), sorted(values.items()))


class TestOnePassPlans:
    """Which content models the encoder takes, and its parity.

    The span parser (``tests/xml/span_parser.py``) is the reference: on
    every word of up to five children both must give the same tree,
    values, or error type and message.  Every other model is refused
    when the encoder is built.
    """

    ELIGIBLE = [
        "(a*,b*)",
        "(b*,a*)",
        "(a+,b?)",
        "((a,b)|b)",
        "((a|b),(a|b))",
        "(#PCDATA|a)*",
        "(a,(b|#PCDATA)?)?",
        "((a?,b?)|#PCDATA)",
        "((a,b?)*,#PCDATA)",
        "((a)?)?",
    ]
    #: Refused models, and the token where one symbol leaves a choice
    #: open.  The first five are not deterministic in the XML sense; the
    #: last three are, but ``(a?|b?)`` and ``(a+)+`` parse ambiguously
    #: and ``(a?)*`` has a loop body that matches nothing.
    REFUSED = {
        "(a*,a*)": "'a'",
        "(a?,a)": "'a'",
        "((a|b*),a)": "'a'",
        "((a,b)*,a)": "'a'",
        "((a,b?)+,b)": "'b'",
        "(a?|b?)": "the end of the children",
        "(a+)+": "'a'",
        "(a?)*": "the end of the children",
    }

    @staticmethod
    def dtd(model):
        return parse_dtd(
            f"<!ELEMENT r {model} > <!ELEMENT a EMPTY > <!ELEMENT b EMPTY >"
        )

    @pytest.mark.parametrize("model", ELIGIBLE)
    def test_plan_taken_exactly_when_lookahead_is_unambiguous(self, model):
        encoder = DTDEncoder(self.dtd(model))
        assert "r" in encoder._plans
        assert lookahead_witness(encoder.dtd, "r", max_length=5) is None

    @pytest.mark.parametrize(
        "fuse,compact,abstract", list(itertools.product((False, True), repeat=3))
    )
    @pytest.mark.parametrize("model", sorted(REFUSED))
    def test_refused_when_the_encoder_is_built(self, model, fuse, compact, abstract):
        with pytest.raises(AmbiguousContentModelError) as refused:
            DTDEncoder(
                self.dtd(model),
                fuse=fuse,
                compact_lists=compact,
                abstract_values=abstract,
            )
        match = REFUSAL.match(str(refused.value))
        assert match is not None, str(refused.value)
        label = self.dtd(model).content("r").label()
        assert match.groups() == ("r", label, self.REFUSED[model])

    @pytest.mark.parametrize("model", sorted(REFUSED))
    def test_span_parser_shows_why_a_model_is_refused(self, model):
        assert lookahead_witness(self.dtd(model), "r") is not None

    def test_refusal_names_pcdata_and_the_element(self):
        dtd = parse_dtd(
            "<!ELEMENT doc (b, r) > <!ELEMENT b EMPTY > "
            "<!ELEMENT r (#PCDATA?, #PCDATA) >"
        )
        with pytest.raises(
            AmbiguousContentModelError,
            match=r"^element 'r': the encoding of content model "
            r"\(pcdata\?,pcdata\) needs more than one symbol of lookahead "
            r"at #PCDATA$",
        ):
            DTDEncoder(dtd)

    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize("model", ELIGIBLE)
    def test_every_short_word_matches_the_span_parser(self, model, fuse):
        encoder = DTDEncoder(self.dtd(model), fuse=fuse, abstract_values=True)
        reference = SpanParserEncoder(
            self.dtd(model), fuse=fuse, abstract_values=True
        )
        for word in _words(5):
            document = element(
                "r",
                *(
                    text("x") if token == PCDATA_LABEL else element(token)
                    for token in word
                ),
            )
            assert _outcome(encoder, document) == _outcome(reference, document), word

    def test_shipped_dtds_are_all_one_pass(self):
        models_dir = Path(__file__).resolve().parents[2] / "models"
        checked = 0
        for path in sorted(models_dir.glob("*.json")):
            if json.loads(path.read_text())["format"] != XML_BUNDLE_FORMAT:
                continue
            transformation = load_transformation(path)
            for encoder in (
                transformation.codec.input_encoder,
                transformation.codec.output_encoder,
            ):
                for name, model in encoder.dtd.elements.items():
                    if not isinstance(model, Empty):
                        assert name in encoder._plans, (path.name, name)
                        checked += 1
        # xmlflip, library and addressbook, both sides.
        assert checked >= 12

    def test_plans_survive_pickling(self):
        encoder = DTDEncoder(self.dtd("((a|b?),#PCDATA)*"))
        copy = pickle.loads(pickle.dumps(encoder))
        assert "r" in copy._plans
        document = element("r", element("a"), text("x"), text("y"))
        assert copy.encode_with_values(document) == encoder.encode_with_values(
            document
        )

    def test_invalid_word_message_descends_through_optional_roots(self):
        encoder = DTDEncoder(self.dtd("((a,b)?)?"))
        assert "r" in encoder._plans
        with pytest.raises(EncodingError, match=r"^children do not match \(a,b\)$"):
            encoder.encode(element("r", element("b")))

    def test_invalid_word_raises_before_children_are_encoded(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        # The first child is broken too, but this level's word is checked
        # first: b before a violates (a*,b*).
        document = element("root", element("b", element("a")), element("a"))
        with pytest.raises(EncodingError, match=r"^children do not match \(a\*,b\*\)$"):
            encoder.encode(document)


class TestWideDocuments:
    """Width costs linear time and no recursion (one pass per level)."""

    def test_ten_thousand_children_encode_and_decode(self):
        encoder = DTDEncoder(xmlflip_input_dtd(), compact_lists=True)
        document = xmlflip_document(5000, 5000)
        started = time.perf_counter()
        tree, values = encoder.encode_with_values(document)
        assert values == {}
        assert encoder.decode(tree) == document
        assert time.perf_counter() - started < 10

    def test_wide_wrong_order_gives_the_span_parser_message(self):
        encoder = DTDEncoder(xmlflip_input_dtd())
        document = element(
            "root", *([element("b")] * 5000 + [element("a")] * 5000)
        )
        started = time.perf_counter()
        with pytest.raises(EncodingError, match=r"^children do not match \(a\*,b\*\)$"):
            encoder.encode(document)
        assert time.perf_counter() - started < 10

    def test_wide_values_keep_document_order(self):
        encoder = DTDEncoder(library_input_dtd(), fuse=True)
        document = library_document(2000)
        assert encoder.roundtrip(document) == document

    def test_encode_allocation_grows_linearly(self):
        # A fresh interpreter, with the tree intern table grown past what
        # the samples add, so no one-off table resize lands in a sample.
        script = """
import tracemalloc
from repro.trees.tree import Tree
from repro.workloads.xmlflip import xmlflip_document, xmlflip_input_dtd
from repro.xml.encode import DTDEncoder
padding = [Tree(f"pad{index}") for index in range(100000)]
encoder = DTDEncoder(xmlflip_input_dtd())
peaks = []
for width in (500, 2000):
    document = xmlflip_document(width, width)
    tracemalloc.start()
    encoder.encode(document)
    peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(peaks[0], peaks[1])
"""
        src = Path(__file__).resolve().parents[2] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            check=True,
        )
        narrow, wide = map(int, result.stdout.split())
        assert wide <= 5 * narrow, (narrow, wide)
