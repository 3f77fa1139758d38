"""Wide valid documents translate, locally and through a live server.

A list of n children encodes to a cons spine of depth n.  The DTD
encoder parses each child word in one pass, value tables are keyed by
slot ordinal, and the provenance pass runs on an explicit stack, so
width costs neither superlinear time or memory nor recursion.
"""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from repro.codec import load_transformation
from repro.errors import EncodingError
from repro.server import ServerClient, ServerThread
from repro.workloads.library import library_document, transform_library
from repro.workloads.xmlflip import transform_xmlflip, xmlflip_document
from repro.xml import parse_xml, serialize_xml
from repro.xml.unranked import element

MODELS_DIR = Path(__file__).resolve().parents[2] / "models"
#: Wall-clock bound per wide request; the span parser took hours here.
BOUND_S = 10


def string_array(count):
    return json.dumps([f"s{index}" for index in range(count)])


@pytest.fixture(scope="module")
def server():
    with ServerThread(MODELS_DIR) as handle:
        yield handle


def test_ten_thousand_child_xml_translates_locally():
    transformation = load_transformation(MODELS_DIR / "xmlflip@1.json")
    document = xmlflip_document(5000, 5000)
    started = time.perf_counter()
    [result] = transformation.apply_batch([document])
    assert time.perf_counter() - started < BOUND_S
    assert result == transform_xmlflip(document)


def test_apply_is_apply_batch_of_one():
    transformation = load_transformation(MODELS_DIR / "xmlflip@1.json")
    document = xmlflip_document(5000, 5000)
    started = time.perf_counter()
    result = transformation.apply(document)
    assert time.perf_counter() - started < BOUND_S
    assert result == transformation.apply_batch([document])[0]
    wrong_order = element("root", element("b"), element("a"))
    with pytest.raises(EncodingError, match=r"^children do not match \(a\*,b\*\)$"):
        transformation.apply(wrong_order)


def test_ten_thousand_child_xml_translates_through_the_server(server):
    document = xmlflip_document(5000, 5000)
    wrong_order = element("root", *([element("b")] * 5000 + [element("a")] * 5000))
    with ServerClient(server.host, server.port, timeout=60) as client:
        started = time.perf_counter()
        got = client.transform("xmlflip@1", serialize_xml(document))
        assert time.perf_counter() - started < BOUND_S
        assert parse_xml(got) == transform_xmlflip(document)
        started = time.perf_counter()
        with pytest.raises(EncodingError, match=r"^children do not match \(a\*,b\*\)$"):
            client.transform("xmlflip@1", serialize_xml(wrong_order))
        assert time.perf_counter() - started < BOUND_S


@pytest.mark.parametrize("count", [500, 1000])
def test_wide_string_array_translates_locally(count):
    transformation = load_transformation(MODELS_DIR / "identity-json@1.json")
    text = string_array(count)
    [result] = transformation.apply_batch([transformation.codec.parse(text)])
    assert transformation.codec.render(result) == text


@pytest.mark.parametrize("count", [500, 1000])
def test_wide_string_array_translates_through_the_server(server, count):
    text = string_array(count)
    with ServerClient(server.host, server.port, timeout=60) as client:
        assert client.transform("identity-json@1", text) == text


#: Wide value-bearing documents: 100,000 strings and 10,000 books (three
#: text values each); and 100,000 value-free items.
STRINGS = 100_000
BOOKS = 10_000


@pytest.fixture(scope="module")
def wide_documents():
    """(model, document text, expected output text or ``None`` for the
    document itself) of each wide case."""
    books = library_document(BOOKS)
    return [
        ("identity-json@1", string_array(STRINGS), string_array(STRINGS)),
        ("library@1", serialize_xml(books), serialize_xml(transform_library(books))),
        ("identity-json@1", json.dumps([True, None] * (STRINGS // 2)), None),
    ]


@pytest.mark.parametrize("case", range(3))
def test_wide_value_bearing_documents_translate_locally(wide_documents, case):
    model, text, expected = wide_documents[case]
    transformation = load_transformation(MODELS_DIR / f"{model}.json")
    started = time.perf_counter()
    [result] = transformation.apply_batch([transformation.codec.parse(text)])
    assert time.perf_counter() - started < BOUND_S
    assert transformation.codec.render(result) == (expected or text)


def test_wide_value_bearing_documents_translate_through_the_server(
    server, wide_documents
):
    with ServerClient(server.host, server.port, timeout=60) as client:
        for model, text, expected in wide_documents:
            started = time.perf_counter()
            assert client.transform(model, text) == (expected or text)
            assert time.perf_counter() - started < BOUND_S


def _peak(transformation, document):
    """``tracemalloc`` peak of translating ``document``, in bytes."""
    tracemalloc.start()
    try:
        [result] = transformation.apply_batch([document])
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "model, make, reference, width",
    [
        ("identity-json@1", lambda n: [f"s{i}" for i in range(n)], lambda d: d, 1000),
        ("library@1", library_document, transform_library, 250),
    ],
)
def test_memory_is_linear_in_width(model, make, reference, width):
    """Doubling the width at most doubles the peak, up to noise; value
    tables keyed by Dewey address made it quadruple."""
    transformation = load_transformation(MODELS_DIR / f"{model}.json")
    peaks = []
    for width in (width, 2 * width):
        document = make(width)
        peak, result = _peak(transformation, document)
        assert result == reference(document)
        peaks.append(peak)
    assert peaks[1] <= 2.5 * peaks[0], peaks
