"""Stream ingestion: feed document readers in chunks, flush early.

The XML syntax lives in :mod:`repro.xml.xmlio`, whose
:class:`~repro.xml.xmlio.StreamParser` (expat push parsing, element
frames on an explicit stack) reads single documents and streams alike.
This module feeds it, and the JSON-lines reader, from any source:

* **incremental** — input arrives in chunks (a file object, an iterable
  of byte/str fragments, or a path read in blocks); nothing requires the
  whole stream in memory;
* **early flush** — in *forest mode* (:func:`iter_stream_documents`)
  the direct children of the stream's root element are yielded as soon
  as their end tags arrive and are **not** accumulated under the root:
  a million-document batch stream is processed holding one document at
  a time, which is what lets :class:`~repro.serve.service.TransformService`
  keep its bounded queues full without materializing the corpus.

A stream document is read exactly as :func:`repro.xml.xmlio.parse_xml`
reads the same text alone: it is the same reader.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, Iterator, Optional, Union

from repro.errors import ParseError
from repro.xml.unranked import UTree
from repro.xml.xmlio import StreamParser

#: Anything the stream readers accept as input.
StreamSource = Union[str, bytes, Path, IO, Iterable]

#: Default read size for file-like and path sources.
DEFAULT_CHUNK_BYTES = 1 << 16


def _iter_chunks(
    source: StreamSource, chunk_bytes: int
) -> Iterator[Union[str, bytes]]:
    """Normalize any accepted source into an iterator of chunks.

    Text stays text and bytes stay bytes: the parser decodes each chunk
    once, by its own rules.
    """
    if isinstance(source, (str, bytes)):
        yield source
    elif isinstance(source, Path):
        with source.open("rb") as handle:
            yield from _iter_chunks(handle, chunk_bytes)
    elif hasattr(source, "read"):
        while True:
            block = source.read(chunk_bytes)
            if not block:
                return
            yield block
    else:
        yield from source


def iter_stream_documents(
    source: StreamSource,
    ignore_attributes: bool = False,
    wrapper: Optional[str] = None,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Iterator[UTree]:
    """Yield the top-level documents of a batch stream, incrementally.

    The stream is one root element (the *wrapper*, checked against
    ``wrapper`` when given) whose direct children are the documents.
    Each document is yielded as soon as its end tag has been read; the
    wrapper's children are never accumulated, so memory is bounded by
    the largest single document, not the stream.
    """
    parser = StreamParser(ignore_attributes=ignore_attributes, forest=True)
    for document in iter_parsed(parser, source, chunk_bytes):
        _check_wrapper(parser, wrapper)
        yield document
    # Validate even when the stream held zero documents: a misnamed or
    # childless wrapper must fail loudly, not look like an empty batch.
    _check_wrapper(parser, wrapper)


def iter_parsed(
    parser, source: StreamSource, chunk_bytes: int = DEFAULT_CHUNK_BYTES
) -> Iterator:
    """Feed ``source`` through an incremental ``feed``/``ready``/``close``
    parser, yielding each document as soon as it completes.

    The one feed loop of every stream reader (XML and JSON lines).
    """
    for chunk in _iter_chunks(source, chunk_bytes):
        parser.feed(chunk)
        yield from parser.ready()
    yield from parser.close()


def _check_wrapper(parser: StreamParser, wrapper: Optional[str]) -> None:
    if wrapper is not None and parser.root_label != wrapper:
        raise ParseError(
            f"stream root is <{parser.root_label}>, expected <{wrapper}>"
        )
