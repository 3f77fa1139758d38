"""The codec contract: one Transformation over term, XML and JSON models.

Every codec must keep the batch path equal to the one-document path
(errors included), write its stock artifacts byte for byte, and
round-trip its text syntax.
"""

import json
from pathlib import Path

import pytest

from repro.codec import TERM_CODEC, load_transformation, transformation_from_bundle
from repro.errors import ParseError, ReproError
from repro.json.jsonio import serialize_json
from repro.serve.stream import iter_stream_documents
from repro.trees.tree import parse_term
from repro.workloads.jsonwl import example_documents
from repro.workloads.library import library_document
from repro.workloads.xmlflip import xmlflip_document
from repro.xml.xmlio import parse_xml, serialize_xml

MODELS_DIR = Path(__file__).resolve().parents[1] / "models"

#: Per stock model: documents in the model's format, with out-of-domain
#: and non-conforming ones mixed in.
DOCUMENTS = {
    "flip@1": [
        parse_term(text)
        for text in (
            "root(a(#, #), b(#, #))",
            "root(a(#, a(#, #)), #)",
            "root(b(#, #), #)",  # out of domain
            "root(zz, #)",  # symbol outside the alphabet
            "a(#, #)",
        )
    ],
    "xmlflip@1": [xmlflip_document(n, m) for n, m in ((0, 0), (2, 1), (1, 3))]
    + [
        parse_xml("<root><b/><a/></root>"),  # breaks (a*,b*)
        parse_xml("<other/>"),  # wrong root element
    ],
    "library@1": [library_document(count) for count in (0, 1, 3)]
    + [parse_xml("<LIBRARY><BOOK/></LIBRARY>")],
    "rename-json@1": example_documents()
    + [{"zzz": 1}, {"bad key!": 1}],  # out of domain, outside the subset
    "redact-json@1": example_documents() + [{"port": "x", "unknown": None}],
}

#: Canonical request texts: parse → render gives them back.
TEXTS = {
    "flip@1": "root(a(#, #), b(#, #))",
    "xmlflip@1": serialize_xml(xmlflip_document(2, 1)),
    "rename-json@1": '{"user": "ada", "tags": [1, null, true], "n": 1.5}',
}


def outcome(value):
    """A comparable outcome: the value, or the error's type and message."""
    if isinstance(value, Exception):
        return type(value).__name__, str(value)
    return value


def apply_or_error(transformation, document):
    try:
        return transformation.apply(document)
    except ReproError as error:
        return error


@pytest.fixture(params=sorted(DOCUMENTS))
def model(request):
    return request.param


class TestContract:
    def test_codecs_cover_every_format(self):
        names = {
            load_transformation(MODELS_DIR / f"{key}.json").codec.name
            for key in DOCUMENTS
        }
        assert names == {"dtop", "xml", "json"}

    def test_batch_equals_one_by_one(self, model):
        transformation = load_transformation(MODELS_DIR / f"{model}.json")
        documents = DOCUMENTS[model]
        batch = transformation.apply_batch(documents)
        single = [apply_or_error(transformation, d) for d in documents]
        assert [outcome(o) for o in batch] == [outcome(o) for o in single]
        assert any(isinstance(o, ReproError) for o in batch), model
        assert not all(isinstance(o, ReproError) for o in batch), model

    def test_stream_equals_batch(self, model):
        transformation = load_transformation(MODELS_DIR / f"{model}.json")
        documents = DOCUMENTS[model]
        streamed = transformation.apply_stream(documents, chunk_docs=2)
        assert [outcome(o) for o in streamed] == [
            outcome(o) for o in transformation.apply_batch(documents)
        ]

    def test_bundle_is_byte_identical_to_the_stock_file(self, model, tmp_path):
        path = MODELS_DIR / f"{model}.json"
        transformation = load_transformation(path)
        committed = path.read_text()
        bundle = transformation.to_bundle()
        assert json.dumps(bundle, indent=2, ensure_ascii=False) == (
            committed.rstrip("\n")
        )
        transformation.save(tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
        again = transformation_from_bundle(bundle)
        assert again.codec.name == transformation.codec.name
        assert again.transducer.rules == transformation.transducer.rules

    @pytest.mark.parametrize("key", sorted(TEXTS))
    def test_parse_render_round_trip(self, key):
        codec = load_transformation(MODELS_DIR / f"{key}.json").codec
        text = TEXTS[key]
        document = codec.parse(text)
        assert codec.render(document) == text
        assert codec.parse(codec.render(document)) == document

    def test_decoders_share_the_batchs_slot_counts(self, monkeypatch):
        """The XML decoder counts the value slots it skips in one memo
        per batch: each distinct skipped subtree is walked once, however
        many documents of the batch hold it."""
        import repro.xml.encode as xml_encode

        memos, misses, skipped = [], [], set()
        counted = xml_encode.slot_count

        def recording(node, labels, counts=None):
            memos.append(counts)
            skipped.add(node.uid)
            if node.uid not in counts:
                misses.append(node.uid)
            return counted(node, labels, counts)

        monkeypatch.setattr(xml_encode, "slot_count", recording)
        transformation = load_transformation(MODELS_DIR / "library@1.json")
        documents = [library_document(count) for count in (1, 3, 3)]
        outputs = transformation.apply_batch(documents)
        assert isinstance(memos[0], dict)
        assert all(memo is memos[0] for memo in memos)
        assert sorted(misses) == sorted(skipped)
        monkeypatch.undo()
        assert outputs == [transformation.apply(d) for d in documents]

    def test_term_codec_is_the_identity_encoding(self):
        tree = parse_term("root(a(#, #), #)")
        assert TERM_CODEC.input_encoder.encode_with_values(tree) == (tree, {})
        assert TERM_CODEC.output_encoder.decode(tree, {}) is tree
        assert TERM_CODEC.stream_parser is None
        with pytest.raises(ReproError, match="no stream syntax"):
            list(TERM_CODEC.iter_stream("root(#, #)"))

    def test_stream_syntax_round_trips_through_the_codec(self):
        xml = load_transformation(MODELS_DIR / "xmlflip@1.json").codec
        documents = DOCUMENTS["xmlflip@1"][:3]
        body = "<batch>" + "".join(
            serialize_xml(d, indent=None) for d in documents
        ) + "</batch>"
        assert list(xml.iter_stream(body.encode())) == documents
        json_codec = load_transformation(MODELS_DIR / "rename-json@1.json").codec
        lines = "\n".join(serialize_json(d) for d in example_documents())
        assert list(json_codec.iter_stream(lines)) == example_documents()

    @pytest.mark.parametrize(
        "body",
        ["", "<batch><a x='1'/></batch>", "<batch><a/></batch> trailing"],
    )
    def test_xml_stream_files_follow_the_stream_reader(self, body):
        xml = load_transformation(MODELS_DIR / "xmlflip@1.json").codec
        with pytest.raises(ParseError) as expected:
            list(iter_stream_documents(body))
        with pytest.raises(ParseError) as caught:
            list(xml.iter_stream(body))
        assert str(caught.value) == str(expected.value)


class TestLoader:
    def test_unknown_format_names_the_expected_ones(self):
        with pytest.raises(ParseError) as caught:
            transformation_from_bundle({"format": "repro/tree@1"})
        message = str(caught.value)
        assert "not a transducer" in message
        for fmt in (
            "repro/dtop@1",
            "repro/xml-transformation@1",
            "repro/json-transformation@1",
        ):
            assert fmt in message

    def test_non_object_is_a_parse_error(self):
        with pytest.raises(ParseError):
            transformation_from_bundle([1, 2])

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ReproError, match="cannot read"):
            load_transformation(path)
