"""One hostile corpus through every document path, for JSON and XML.

Each hostile document goes through local ``apply``, ``apply_batch``
beside a good document, served ``transform`` (with a good document sent
at the same time on a second connection), served ``transform_stream``
and ``repro apply``.  Every path must answer it with one structured
error — never a crash, a dropped connection or a failed batch — and
then serve the good document and a ``health`` request on the same
connection.

The corpus: raw and escaped lone surrogates, NUL, 5,000-deep nesting,
a 5,000-digit integer, ``1e400`` and ``NaN``, a duplicate key (for XML,
a duplicate attribute), a leading BOM and invalid UTF-8.  Some of these
are well-formed XML with ordinary text (long numbers, ``NaN``) or a
BOM the XML spec allows; those must translate the same on every path.
"""

import json
import shutil
import socket
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import pytest

from repro.cli import main
from repro.codec import load_transformation
from repro.errors import ReproError
from repro.server import ServerClient, ServerThread
from repro.xml.unranked import element, text

MODELS_DIR = Path(__file__).resolve().parents[2] / "models"

#: ``apply_batch`` has no in-memory form of this document.
NO_VALUE = object()


@dataclass
class Hostile:
    name: str
    #: The document: a str, or bytes where no str can hold it.
    source: Union[str, bytes]
    #: An in-memory document with the same fault, for ``apply_batch``.
    value: object = NO_VALUE
    #: False where the format allows the document and it translates.
    refused: bool = True
    #: The error type every path but ``apply_batch`` answers with.
    error: str = "ParseError"
    marks: tuple = ()

    @property
    def data(self) -> bytes:
        if isinstance(self.source, bytes):
            return self.source
        # A lone surrogate becomes the three bytes UTF-8 forbids.
        return self.source.encode("utf-8", "surrogatepass")


def deep_list(depth: int):
    value = []
    for _ in range(depth):
        value = [value]
    return value


LONG_DIGITS = "9" * 5000
digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="integer conversion has no digit limit on this Python",
)

JSON_GOOD = '{"user": "ada", "pwd": "s"}'
JSON_CORPUS = [
    Hostile("raw-surrogate", '{"user": "\ud800"}', {"user": "\ud800"}),
    Hostile("escaped-surrogate", '{"user": "\\ud800"}', {"user": "\ud800"}),
    Hostile("nul", '{"user": "a\x00b"}'),
    Hostile("deep", "[" * 5000 + "]" * 5000, deep_list(5000)),
    Hostile(
        "long-int",
        '{"user": ' + LONG_DIGITS + "}",
        {"user": 10**5000},
        marks=(digit_limit,),
    ),
    Hostile("overflow", '{"user": 1e400}', {"user": float("inf")}),
    Hostile("nan", '{"user": NaN}', {"user": float("nan")}),
    Hostile("duplicate-key", '{"user": "a", "user": "b"}'),
    Hostile("bom", '\ufeff{"user": "ada"}'),
    Hostile("invalid-utf8", b'{"user": "\xff"}'),
]


def book(author: str = "ada", attributes: str = "") -> str:
    return (
        f"<LIBRARY><BOOK{attributes}><AUTHOR>{author}</AUTHOR>"
        f"<TITLE>T</TITLE><YEAR>1999</YEAR></BOOK></LIBRARY>"
    )


def book_value(author: str):
    return element(
        "LIBRARY",
        element(
            "BOOK",
            element("AUTHOR", text(author)),
            element("TITLE", text("T")),
            element("YEAR", text("1999")),
        ),
    )


XML_GOOD = book()
XML_CORPUS = [
    Hostile("raw-surrogate", book("\ud800"), book_value("\ud800")),
    Hostile("escaped-surrogate", book("&#xD800;")),
    Hostile("nul", book("a&#0;b")),
    Hostile("raw-nul", book("a\x00b")),
    Hostile(
        "deep",
        "<LIBRARY>" + "<BOOK>" * 5000 + "</BOOK>" * 5000 + "</LIBRARY>",
        error="EncodingError",  # well-formed; the DTD refuses it
    ),
    Hostile("long-int", book(LONG_DIGITS), refused=False),
    Hostile("overflow", book("1e400"), refused=False),
    Hostile("nan", book("NaN"), refused=False),
    Hostile("duplicate-attribute", book(attributes=' id="1" id="2"')),
    Hostile("bom", "\ufeff" + XML_GOOD, refused=False),
    Hostile("invalid-utf8", book("a").encode("utf-8").replace(b">a<", b">\xff<")),
]

MODELS = {"json": "rename-json@1", "xml": "library@1"}
GOOD = {"json": JSON_GOOD, "xml": XML_GOOD}
CASES = [
    pytest.param(fmt, case, id=f"{fmt}-{case.name}", marks=case.marks)
    for fmt, corpus in (("json", JSON_CORPUS), ("xml", XML_CORPUS))
    for case in corpus
]
BATCH_CASES = [param for param in CASES if param.values[1].value is not NO_VALUE]


def transformation(fmt: str):
    return load_transformation(MODELS_DIR / f"{MODELS[fmt]}.json")


def local(fmt: str, source) -> Union[str, ReproError]:
    """``codec.parse`` then ``Transformation.apply``: output or error."""
    bundle = transformation(fmt)
    try:
        return bundle.codec.render(bundle.apply(bundle.codec.parse(source)))
    except ReproError as error:
        return error


def expected(fmt: str, case: Hostile) -> str:
    """The output a translating document gets on every path."""
    output = local(fmt, case.source)
    assert isinstance(output, str), output
    return output


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    directory = tmp_path_factory.mktemp("hostile-models")
    for model in MODELS.values():
        shutil.copy(MODELS_DIR / f"{model}.json", directory)
    with ServerThread(directory) as handle:
        yield handle


@pytest.mark.parametrize("fmt, case", CASES)
def test_local_apply(fmt, case):
    outcome = local(fmt, case.source)
    if case.refused:
        assert type(outcome).__name__ == case.error
        assert str(outcome)
    else:
        assert outcome.startswith("<LIBRARY>")


@pytest.mark.parametrize("fmt, case", BATCH_CASES)
def test_apply_batch_fails_only_the_hostile_document(fmt, case):
    bundle = transformation(fmt)
    good = bundle.codec.parse(GOOD[fmt])
    hostile, answer = bundle.apply_batch([case.value, good])
    assert isinstance(hostile, ReproError)
    assert bundle.codec.render(answer) == local(fmt, GOOD[fmt])


def request_line(model: str, source) -> bytes:
    """A transform request line.  ``json.dumps`` escapes a lone surrogate
    as ``\\ud800``; the bytes of a ``bytes`` document go on the wire
    as they are, invalid UTF-8 included."""
    if isinstance(source, str):
        document = json.dumps(source).encode()
    else:
        document = json.dumps(
            source.decode("latin-1"), ensure_ascii=False
        ).encode("latin-1")
    return b'{"op": "transform", "model": "%s", "document": %s}\n' % (
        model.encode(),
        document,
    )


@pytest.mark.parametrize("fmt, case", CASES)
def test_served_transform(server, fmt, case):
    model = MODELS[fmt]
    address = (server.host, server.port)
    with socket.create_connection(address, timeout=30) as hostile_socket, \
            socket.create_connection(address, timeout=30) as good_socket:
        hostile = hostile_socket.makefile("rwb")
        good = good_socket.makefile("rwb")
        # Both requests are in flight at once, so they can share a batch.
        hostile.write(request_line(model, case.source))
        good.write(request_line(model, GOOD[fmt]))
        hostile.flush()
        good.flush()
        answer = json.loads(hostile.readline())
        assert json.loads(good.readline())["document"] == local(fmt, GOOD[fmt])
        if case.refused:
            assert answer["ok"] is False
            # A request line that is not UTF-8 is refused before parsing.
            wanted = "bad-request" if isinstance(case.source, bytes) else case.error
            assert answer["error"]["type"] == wanted
            assert answer["error"]["message"]
        else:
            assert answer["document"] == expected(fmt, case)
        for request in (request_line(model, GOOD[fmt]), b'{"op": "health"}\n'):
            hostile.write(request)
            hostile.flush()
            assert json.loads(hostile.readline())["ok"] is True


def stream_body(fmt: str, data: bytes) -> bytes:
    if fmt == "json":
        return data + b"\n"
    bom = "\ufeff".encode("utf-8")
    prolog = bom if data.startswith(bom) else b""
    return prolog + b"<batch>" + data[len(prolog):] + b"</batch>"


@pytest.mark.parametrize("fmt, case", CASES)
def test_served_transform_stream(server, fmt, case):
    model = MODELS[fmt]
    with ServerClient(server.host, server.port, timeout=30) as client:
        try:
            outcomes = client.transform_stream(model, stream_body(fmt, case.data))
        except ReproError as error:
            # The body failed to parse: a ParseError answer, not the
            # ServiceError of a dropped connection.
            assert case.refused and type(error).__name__ == "ParseError"
        else:
            if case.refused:
                assert [type(outcome).__name__ for outcome in outcomes] == [
                    case.error
                ]
            else:
                assert outcomes == [expected(fmt, case)]
        good = client.transform_stream(model, stream_body(fmt, GOOD[fmt].encode()))
        assert good == [local(fmt, GOOD[fmt])]
        assert client.health()["status"] == "serving"


@pytest.mark.parametrize("fmt, case", CASES)
def test_cli_apply(tmp_path, capsys, fmt, case):
    document = tmp_path / f"doc.{fmt}"
    document.write_bytes(case.data)
    model = str(MODELS_DIR / f"{MODELS[fmt]}.json")
    code = main(["apply", "--transform", model, str(document)])
    captured = capsys.readouterr()
    if case.refused:
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
    else:
        assert code == 0
        assert captured.out == expected(fmt, case) + "\n"
