"""Wide valid documents translate, locally and through a live server.

A list of n children encodes to a cons spine of depth n.  The DTD
encoder parses each child word in one pass and the origin tracker runs
on an explicit stack, so width costs neither cubic time nor recursion.
"""

import json
import time
from pathlib import Path

import pytest

from repro.codec import load_transformation
from repro.errors import EncodingError
from repro.server import ServerClient, ServerThread
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
