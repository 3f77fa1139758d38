"""Streaming XML ingestion: build documents incrementally, flush early.

:mod:`repro.xml.xmlio` parses a fully materialized string recursively —
fine for single documents, wrong for a service fed multi-megabyte
streams of documents.  This module ingests XML through the expat push
parser (the SAX substrate of the standard library):

* **incremental** — input arrives in chunks (a file object, an iterable
  of byte/str fragments, or a path read in blocks); nothing requires the
  whole stream in memory;
* **iterative** — element frames live on an explicit stack, so
  depth-100 000 documents parse without touching the Python recursion
  limit (the recursive reader overflows around depth 900);
* **early flush** — in *forest mode* (:func:`iter_stream_documents`)
  the direct children of the stream's root element are yielded as soon
  as their end tags arrive and are **not** accumulated under the root:
  a million-document batch stream is processed holding one document at
  a time, which is what lets :class:`~repro.serve.service.TransformService`
  keep its bounded queues full without materializing the corpus.

Semantics match :func:`repro.xml.xmlio.parse_xml` on its supported
subset: elements and character data; comments, processing instructions
and the document type declaration are skipped; surrounding whitespace of
character data is stripped and whitespace-only text dropped; attributes
raise :class:`~repro.errors.ParseError` unless ``ignore_attributes``.
Expat additionally accepts CDATA sections (treated as character data) —
a strict superset, covered by the equivalence tests.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Union
from xml.parsers import expat

from repro.errors import ParseError
from repro.xml.unranked import PCDATA_LABEL, UTree

#: Anything the stream readers accept as input.
StreamSource = Union[str, bytes, Path, IO, Iterable]

#: Default read size for file-like and path sources.
DEFAULT_CHUNK_BYTES = 1 << 16


def _iter_chunks(source: StreamSource, chunk_bytes: int) -> Iterator[bytes]:
    """Normalize any accepted source into an iterator of byte chunks."""
    if isinstance(source, bytes):
        yield source
        return
    if isinstance(source, str):
        yield source.encode("utf-8")
        return
    if isinstance(source, Path):
        with source.open("rb") as handle:
            while True:
                block = handle.read(chunk_bytes)
                if not block:
                    return
                yield block
        return
    if hasattr(source, "read"):
        while True:
            block = source.read(chunk_bytes)
            if not block:
                return
            yield block.encode("utf-8") if isinstance(block, str) else block
        return
    for piece in source:
        yield piece.encode("utf-8") if isinstance(piece, str) else piece


class StreamParser:
    """Push parser building :class:`~repro.xml.unranked.UTree` documents.

    Feed byte (or str) fragments with :meth:`feed`, drain completed
    documents with :meth:`ready`, and finish with :meth:`close`.  In
    forest mode every direct child element of the stream's single root
    element is a document (flushed on completion, never retained);
    otherwise the root element itself is the one document.
    """

    def __init__(self, ignore_attributes: bool = False, forest: bool = False):
        self.ignore_attributes = ignore_attributes
        self.forest = forest
        self.root_label: Optional[str] = None
        self._parser = expat.ParserCreate()
        self._parser.buffer_text = True
        self._parser.StartElementHandler = self._start
        self._parser.EndElementHandler = self._end
        self._parser.CharacterDataHandler = self._data
        # Frames: (label, children list, text buffer), explicit stack.
        self._frames: List[tuple] = []
        self._ready: List[UTree] = []
        self._closed = False
        self._documents = 0

    # -- expat handlers -------------------------------------------------

    def _error(self, message: str) -> ParseError:
        return ParseError(
            f"XML stream error at line {self._parser.CurrentLineNumber}, "
            f"column {self._parser.CurrentColumnNumber}: {message}"
        )

    def _flush_text(self) -> None:
        label, children, buffer = self._frames[-1]
        if buffer:
            data = "".join(buffer).strip()
            buffer.clear()
            if data:
                if self.forest and len(self._frames) == 1:
                    raise self._error(
                        f"stray character data {data[:30]!r} between "
                        f"stream documents"
                    )
                children.append(UTree(PCDATA_LABEL, (), data))

    def _start(self, name: str, attributes: dict) -> None:
        if attributes and not self.ignore_attributes:
            raise self._error(
                f"attributes on <{name}> are not part of the tree model "
                f"(pass ignore_attributes=True to drop them)"
            )
        if not self._frames:
            self.root_label = name
        else:
            self._flush_text()
        self._frames.append((name, [], []))

    def _end(self, name: str) -> None:
        self._flush_text()
        label, children, _buffer = self._frames.pop()
        completed = UTree(label, tuple(children))
        if not self._frames:
            if not self.forest:
                self._ready.append(completed)
                self._documents += 1
            return
        if self.forest and len(self._frames) == 1:
            # A top-level document finished: flush it instead of growing
            # the root's child list — the root stays permanently empty.
            self._ready.append(completed)
            self._documents += 1
        else:
            self._frames[-1][1].append(completed)

    def _data(self, data: str) -> None:
        if not self._frames:
            if data.strip():
                raise self._error(
                    f"character data {data.strip()[:30]!r} outside the "
                    f"root element"
                )
            return
        self._frames[-1][2].append(data)

    # -- public API -----------------------------------------------------

    def feed(self, fragment: Union[str, bytes]) -> None:
        """Consume the next fragment of the stream."""
        if self._closed:
            raise ParseError("cannot feed a closed stream parser")
        if isinstance(fragment, str):
            fragment = fragment.encode("utf-8")
        try:
            self._parser.Parse(fragment, False)
        except expat.ExpatError as error:
            raise ParseError(f"XML stream error: {error}") from None

    def ready(self) -> List[UTree]:
        """Documents completed since the last call (drains the buffer)."""
        done = self._ready
        self._ready = []
        return done

    def close(self) -> List[UTree]:
        """Signal end of stream; return the final completed documents."""
        if not self._closed:
            self._closed = True
            try:
                self._parser.Parse(b"", True)
            except expat.ExpatError as error:
                raise ParseError(f"XML stream error: {error}") from None
            if self._frames:  # pragma: no cover - expat reports it first
                raise ParseError(
                    f"unterminated element <{self._frames[-1][0]}>"
                )
        return self.ready()

    @property
    def documents_seen(self) -> int:
        """Number of documents completed so far."""
        return self._documents


def parse_xml_stream(
    source: StreamSource,
    ignore_attributes: bool = False,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> UTree:
    """Parse one XML document from a stream; drop-in for ``parse_xml``.

    >>> parse_xml_stream("<a><b/>hi</a>").size
    3
    """
    parser = StreamParser(ignore_attributes=ignore_attributes)
    documents = list(iter_parsed(parser, source, chunk_bytes))
    if not documents:
        raise ParseError("no document found in the stream")
    return documents[0]


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
    if parser.root_label is None:
        raise ParseError("no document found in the stream")
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
