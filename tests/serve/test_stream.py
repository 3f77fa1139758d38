"""Streaming XML ingestion: equivalence with whole-document parsing,
forest-mode flushing, deep documents, and the serve-layer wiring."""

import io
from pathlib import Path

import pytest

from repro.errors import ParseError
from repro.serve import TransformService
from repro.serve.stream import (
    StreamParser,
    iter_stream_documents,
    parse_xml_stream,
)
from repro.workloads.xmlflip import (
    transform_xmlflip,
    xmlflip_document,
    xmlflip_input_dtd,
    xmlflip_output_dtd,
    xmlflip_transducer,
)
from repro.xml.encode import DTDEncoder
from repro.codec import Transformation
from repro.xml.pipeline import xml_codec
from repro.xml.schema import schema_dtta
from repro.xml.unranked import UTree
from repro.xml.xmlio import parse_xml, serialize_xml

WELL_FORMED = [
    "<a/>",
    "<a><b/>hi</a>",
    "<r>  <x>1</x><!-- comment --><y/>tail  </r>",
    "<root><a/><a/><b/><b/><b/></root>",
    "<a>x &amp; y &#65; &lt;tag&gt; &quot;q&quot; &apos;s&apos;</a>",
    "<?xml version='1.0' encoding='UTF-8'?><!DOCTYPE a><a>t<b><c>deep</c></b></a>",
    "<a>\n  leading and trailing   \n</a>",
    "<a><b>x</b><b>y</b><b>z</b></a>",
    "<mixed>one<e/>two<e/>three</mixed>",
]

MALFORMED = [
    "",
    "<a>",
    "<a><b></a>",
    "<a></a><b></b>",  # document mode: trailing content
    "<a>&undefined;</a>",
    "just text",
]


def walk(document):
    """Iterative (depth-safe) preorder over a UTree."""
    stack = [(document, 1)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        for child in node.children:
            stack.append((child, depth + 1))


class TestDocumentEquivalence:
    @pytest.mark.parametrize("text", WELL_FORMED)
    def test_matches_materialized_parser(self, text):
        want = parse_xml(text, ignore_attributes=True)
        assert parse_xml_stream(text, ignore_attributes=True) == want

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunk_boundaries_are_invisible(self, chunk):
        for text in WELL_FORMED:
            pieces = [text[i : i + chunk] for i in range(0, len(text), chunk)]
            want = parse_xml(text, ignore_attributes=True)
            assert parse_xml_stream(pieces, ignore_attributes=True) == want

    def test_multibyte_utf8_split_across_chunks(self):
        text = "<a>héllo wörld — ünïcode</a>"
        data = text.encode("utf-8")
        pieces = [data[i : i + 1] for i in range(len(data))]
        assert parse_xml_stream(pieces) == parse_xml(text)

    def test_sources_file_object_and_path(self, tmp_path):
        text = "<a><b>x</b></a>"
        want = parse_xml(text)
        assert parse_xml_stream(io.BytesIO(text.encode())) == want
        assert parse_xml_stream(io.StringIO(text)) == want
        path = tmp_path / "doc.xml"
        path.write_text(text)
        assert parse_xml_stream(path) == want

    @pytest.mark.parametrize("text", MALFORMED)
    def test_malformed_raises_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_xml(text)
        with pytest.raises(ParseError):
            parse_xml_stream(text)

    def test_attributes_rejected_unless_ignored(self):
        with pytest.raises(ParseError):
            parse_xml_stream("<a x='1'/>")
        assert parse_xml_stream("<a x='1'/>", ignore_attributes=True) == UTree("a")

    def test_xmlflip_corpus_equivalence(self):
        documents = [xmlflip_document(n % 5, (3 * n + 1) % 6) for n in range(25)]
        for document in documents:
            for indent in (2, None):
                text = serialize_xml(document, indent=indent)
                assert parse_xml_stream(text) == parse_xml(text) == document


class TestForestStreaming:
    def _wrapper(self, documents, indent=None):
        return (
            "<batch>"
            + "".join(serialize_xml(d, indent=indent) for d in documents)
            + "</batch>"
        )

    def test_yields_top_level_documents_in_order(self):
        documents = [xmlflip_document(i % 3, i % 4) for i in range(50)]
        text = self._wrapper(documents)
        streamed = list(iter_stream_documents(text))
        assert streamed == documents
        # Equivalence with whole-document parsing of the same stream.
        assert streamed == list(parse_xml(text).children)

    def test_documents_flush_before_stream_ends(self):
        parser = StreamParser(forest=True)
        parser.feed("<batch><doc><a/></doc><doc>")
        early = parser.ready()
        assert early == [parse_xml("<doc><a/></doc>")]
        parser.feed("<b/></doc></batch>")
        assert parser.close() == [parse_xml("<doc><b/></doc>")]
        assert parser.documents_seen == 2

    def test_wrapper_children_never_accumulate(self):
        parser = StreamParser(forest=True)
        parser.feed("<batch>" + "<d/>" * 500)
        parser.ready()
        # The root frame's child list stays empty: documents were
        # flushed, not attached — the memory contract of forest mode.
        assert parser._frames[0][1] == []

    def test_wrapper_label_is_checked(self):
        with pytest.raises(ParseError):
            list(iter_stream_documents("<other><d/></other>", wrapper="batch"))

    def test_wrapper_checked_even_with_zero_documents(self):
        # A misnamed childless wrapper must fail, not read as an empty
        # batch that was served "successfully".
        with pytest.raises(ParseError):
            list(iter_stream_documents("<other/>", wrapper="batch"))

    def test_empty_wrapper_with_right_label_is_an_empty_batch(self):
        assert list(iter_stream_documents("<batch/>", wrapper="batch")) == []

    def test_stray_text_between_documents_rejected(self):
        with pytest.raises(ParseError):
            list(iter_stream_documents("<batch><d/>loose text<d/></batch>"))

    def test_deep_document_through_the_stream_path(self):
        depth = 100_000
        text_pieces = ["<batch>", "<d>" * depth, "</d>" * depth, "</batch>"]
        (document,) = list(iter_stream_documents(text_pieces))
        nodes = 0
        deepest = 0
        for _node, level in walk(document):
            nodes += 1
            deepest = max(deepest, level)
        assert nodes == depth
        assert deepest == depth

    def test_deep_single_document_stream(self):
        depth = 100_000
        document = parse_xml_stream(["<d>" * depth, "</d>" * depth])
        assert max(level for _n, level in walk(document)) == depth


class TestStreamedServing:
    def _transformation(self):
        input_encoder = DTDEncoder(xmlflip_input_dtd())
        output_encoder = DTDEncoder(xmlflip_output_dtd())
        return Transformation(
            xmlflip_transducer(),
            xml_codec(input_encoder, output_encoder),
            schema_dtta(input_encoder),
        )

    def test_streamed_equals_materialized_batch(self):
        transformation = self._transformation()
        documents = [xmlflip_document(n % 4, (n * 7 + 2) % 5) for n in range(40)]
        reference = transformation.apply_batch(documents)
        stream = "<batch>" + "".join(
            serialize_xml(d, indent=None) for d in documents
        ) + "</batch>"
        for jobs in (1, 2):
            streamed = list(
                transformation.apply_stream(
                    iter_stream_documents(stream), jobs=jobs, chunk_docs=7
                )
            )
            assert streamed == reference
        assert [
            o for o in reference if not isinstance(o, Exception)
        ] == [transform_xmlflip(d) for d in documents]

    def test_streamed_surfaces_per_document_errors(self):
        transformation = self._transformation()
        good = xmlflip_document(2, 1)
        bad = UTree("root", (UTree("z"),))  # not in the input DTD
        outcomes = list(
            transformation.apply_stream(iter([good, bad, good]), jobs=2)
        )
        assert not isinstance(outcomes[0], Exception)
        assert isinstance(outcomes[1], Exception)
        assert not isinstance(outcomes[2], Exception)

    def test_apply_batch_jobs_matches_serial(self):
        transformation = self._transformation()
        documents = [xmlflip_document(n % 3, n % 4) for n in range(20)]
        assert transformation.apply_batch(
            documents, jobs=2
        ) == transformation.apply_batch(documents)
