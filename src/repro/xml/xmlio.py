"""The XML reader and writer for the element-and-text subset we model.

There is one reader, :class:`StreamParser`, a push parser over the
standard library's expat binding.  It reads every XML input: in
single-document mode behind :func:`parse_xml` (served ``transform``
requests, ``repro learn``, ``repro apply``, ``Transformation.apply``)
and in forest mode behind :mod:`repro.serve.stream` (local stream files
and served ``transform_stream`` bodies), so one document gets one
answer on every path.

* Elements and character data make the tree.  CDATA sections are
  character data, line ends are normalized (XML 1.0 §2.11), the
  surrounding whitespace of character data is stripped and
  whitespace-only text dropped.
* Comments, processing instructions and the document type declaration
  are skipped.  Entities declared in the internal subset are expanded
  (expat bounds their amplification); a reference to an undeclared or
  an external entity raises, so no content is dropped or read from
  elsewhere.
* Attributes are not part of the paper's tree model: they raise unless
  ``ignore_attributes=True`` drops them.
* Element frames live on an explicit stack, so nesting depth is bounded
  by memory, not by the recursion limit.
* A ``str`` is read as the text it is, whatever its XML declaration
  names; ``bytes`` are decoded by the declaration (UTF-8 by default).

Every malformed input raises :class:`~repro.errors.ParseError` reading
``XML error at line L, column C: reason``; the reason is expat's or the
reader's own, and columns count from 0 as expat's do.
"""

from __future__ import annotations

from typing import List, Optional, Union
from xml.parsers import expat

from repro.errors import ParseError
from repro.xml.unranked import PCDATA_LABEL, UTree


def _escape(data: str) -> str:
    return (
        data.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


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
        self._parser.SkippedEntityHandler = self._skipped_entity
        self._parser.ExternalEntityRefHandler = self._external_entity
        # Frames: (label, children list, text buffer), explicit stack.
        self._frames: List[tuple] = []
        self._ready: List[UTree] = []
        self._closed = False
        self._documents = 0

    # -- expat handlers -------------------------------------------------

    def _error(self, message: str) -> ParseError:
        return ParseError(
            f"XML error at line {self._parser.CurrentLineNumber}, "
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
        # Expat reports no character data outside the root element.
        self._frames[-1][2].append(data)

    def _skipped_entity(self, name: str, _is_parameter_entity: bool) -> None:
        # Expat skips an undeclared entity when the document has an
        # external DTD; dropping its text silently would lose content.
        raise self._error(f"undefined entity &{name};")

    def _external_entity(self, _context, _base, system_id, _public_id) -> None:
        raise self._error(f"external entity {system_id!r} is not read")

    def _parse(self, data: Union[str, bytes], final: bool) -> None:
        try:
            try:
                self._parser.Parse(data, final)
            except UnicodeEncodeError as error:
                # pyexpat encodes a str as UTF-8 before parsing any of it,
                # which fails on a lone surrogate.  Parse the text before
                # it, so an earlier error wins and the position is known.
                self._parser.Parse(data[: error.start], False)
                raise self._error(
                    f"lone surrogate U+{ord(data[error.start]):04X} is not "
                    f"a character"
                ) from None
        except expat.ExpatError as error:
            raise ParseError(
                f"XML error at line {error.lineno}, column {error.offset}: "
                f"{expat.ErrorString(error.code)}"
            ) from None
        except (LookupError, ValueError) as error:
            # The declaration names a codec Python does not know, or a
            # multi-byte one other than UTF-8/16, which expat cannot use.
            raise self._error(f"unsupported encoding: {error}") from None

    # -- public API -----------------------------------------------------

    def feed(self, fragment: Union[str, bytes]) -> None:
        """Consume the next fragment of the stream."""
        if self._closed:
            raise ParseError("cannot feed a closed stream parser")
        self._parse(fragment, False)

    def ready(self) -> List[UTree]:
        """Documents completed since the last call (drains the buffer)."""
        done = self._ready
        self._ready = []
        return done

    def close(self) -> List[UTree]:
        """Signal end of stream; return the final completed documents."""
        if not self._closed:
            self._closed = True
            self._parse(b"", True)
        return self.ready()

    @property
    def documents_seen(self) -> int:
        """Number of documents completed so far."""
        return self._documents


def parse_xml(
    source: Union[str, bytes], ignore_attributes: bool = False
) -> UTree:
    """Parse an XML document into an unranked tree.

    >>> parse_xml("<a><b/>hi</a>").size
    3
    """
    parser = StreamParser(ignore_attributes=ignore_attributes)
    parser.feed(source)
    (document,) = parser.close()
    return document


def serialize_xml(tree: UTree, indent: Optional[int] = 2) -> str:
    """Render an unranked tree as an XML document string."""

    def render(node: UTree, depth: int) -> List[str]:
        pad = " " * (indent * depth) if indent else ""
        if node.is_text:
            return [pad + _escape(node.text if node.text is not None else "")]
        if not node.children:
            return [f"{pad}<{node.label}/>"]
        if len(node.children) == 1 and node.children[0].is_text:
            child = node.children[0]
            data = _escape(child.text if child.text is not None else "")
            return [f"{pad}<{node.label}>{data}</{node.label}>"]
        lines = [f"{pad}<{node.label}>"]
        for child in node.children:
            lines.extend(render(child, depth + 1))
        lines.append(f"{pad}</{node.label}>")
        return lines

    return "\n".join(render(tree, 0))
