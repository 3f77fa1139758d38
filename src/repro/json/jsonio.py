"""A strict JSON reader/writer for the modeled document subset.

The modeled values are objects, arrays, strings, finite numbers, and the
three literals — exactly RFC 8259, minus the parts a ranked encoding
cannot represent faithfully:

* duplicate object keys are rejected (the encoding keys members by
  name, so a duplicate would silently drop a value);
* nesting deeper than ``max_depth`` is rejected with a clear error
  instead of a :class:`RecursionError` from deep inside the parser;
* non-finite numbers (``NaN``/``Infinity`` — not JSON anyway) never
  parse and never serialize.

Every syntax error is a :class:`~repro.errors.ParseError` carrying the
byte offset of the offending character, mirroring
:mod:`repro.xml.xmlio`.  The writer is deterministic: object members
keep their insertion order, numbers render via ``repr`` (round-trips
exactly), and the output is a single line — which is what makes the
JSON-lines protocol of :class:`JsonLinesParser` self-framing.
"""

from __future__ import annotations

import math
from typing import List, Optional, Union

from repro.errors import EncodingError, ParseError

#: Nesting cap: parse errors beat RecursionErrors from a hostile body.
DEFAULT_MAX_DEPTH = 200

_WHITESPACE = " \t\n\r"
_ESCAPES = {
    '"': '"',
    "\\": "\\",
    "/": "/",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
}
_REVERSE_ESCAPES = {
    '"': '\\"',
    "\\": "\\\\",
    "\b": "\\b",
    "\f": "\\f",
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}

JsonValue = Union[dict, list, str, int, float, bool, None]


class _JsonParser:
    def __init__(self, source: str, max_depth: int):
        self.source = source
        self.pos = 0
        self.max_depth = max_depth

    def error(self, message: str) -> ParseError:
        return ParseError(f"JSON error at offset {self.pos}: {message}")

    def skip_whitespace(self) -> None:
        while (
            self.pos < len(self.source)
            and self.source[self.pos] in _WHITESPACE
        ):
            self.pos += 1

    def parse_value(self, depth: int) -> JsonValue:
        if depth > self.max_depth:
            raise self.error(
                f"nesting depth exceeds the modeled maximum of "
                f"{self.max_depth}"
            )
        self.skip_whitespace()
        if self.pos >= len(self.source):
            raise self.error("unexpected end of input, expected a value")
        ch = self.source[self.pos]
        if ch == "{":
            return self.parse_object(depth)
        if ch == "[":
            return self.parse_array(depth)
        if ch == '"':
            return self.parse_string()
        if ch == "-" or ch.isdigit():
            return self.parse_number()
        for literal, value in (("true", True), ("false", False), ("null", None)):
            if self.source.startswith(literal, self.pos):
                self.pos += len(literal)
                return value
        raise self.error(f"unexpected character {ch!r}")

    def parse_object(self, depth: int) -> dict:
        start = self.pos
        self.pos += 1  # consume '{'
        result: dict = {}
        self.skip_whitespace()
        if self.pos < len(self.source) and self.source[self.pos] == "}":
            self.pos += 1
            return result
        while True:
            self.skip_whitespace()
            if self.pos >= len(self.source):
                self.pos = start
                raise self.error("unterminated object")
            if self.source[self.pos] != '"':
                raise self.error("object keys must be strings")
            key_offset = self.pos
            key = self.parse_string()
            if key in result:
                self.pos = key_offset
                raise self.error(f"duplicate object key {key!r}")
            self.skip_whitespace()
            if self.pos >= len(self.source) or self.source[self.pos] != ":":
                raise self.error("expected ':' after an object key")
            self.pos += 1
            result[key] = self.parse_value(depth + 1)
            self.skip_whitespace()
            if self.pos >= len(self.source):
                self.pos = start
                raise self.error("unterminated object")
            if self.source[self.pos] == ",":
                self.pos += 1
                continue
            if self.source[self.pos] == "}":
                self.pos += 1
                return result
            raise self.error("expected ',' or '}' in an object")

    def parse_array(self, depth: int) -> list:
        start = self.pos
        self.pos += 1  # consume '['
        result: list = []
        self.skip_whitespace()
        if self.pos < len(self.source) and self.source[self.pos] == "]":
            self.pos += 1
            return result
        while True:
            result.append(self.parse_value(depth + 1))
            self.skip_whitespace()
            if self.pos >= len(self.source):
                self.pos = start
                raise self.error("unterminated array")
            if self.source[self.pos] == ",":
                self.pos += 1
                continue
            if self.source[self.pos] == "]":
                self.pos += 1
                return result
            raise self.error("expected ',' or ']' in an array")

    def parse_string(self) -> str:
        self.pos += 1  # consume '"'
        out: List[str] = []
        while True:
            if self.pos >= len(self.source):
                raise self.error("unterminated string")
            ch = self.source[self.pos]
            if ch == '"':
                self.pos += 1
                return "".join(out)
            if ch == "\\":
                out.append(self.parse_escape())
                continue
            if ord(ch) < 0x20:
                raise self.error(
                    f"raw control character U+{ord(ch):04X} in a string"
                )
            out.append(ch)
            self.pos += 1

    def parse_escape(self) -> str:
        escape_offset = self.pos
        self.pos += 1  # consume '\'
        if self.pos >= len(self.source):
            raise self.error("unterminated escape sequence")
        ch = self.source[self.pos]
        if ch in _ESCAPES:
            self.pos += 1
            return _ESCAPES[ch]
        if ch != "u":
            self.pos = escape_offset
            raise self.error(f"unknown escape sequence \\{ch}")
        code = self._hex4(escape_offset)
        if 0xD800 <= code <= 0xDBFF:
            # High surrogate: a low surrogate escape must follow.
            if not self.source.startswith("\\u", self.pos):
                self.pos = escape_offset
                raise self.error(
                    f"unpaired high surrogate \\u{code:04X}"
                )
            low_offset = self.pos
            self.pos += 1
            low = self._hex4(low_offset)
            if not 0xDC00 <= low <= 0xDFFF:
                self.pos = escape_offset
                raise self.error(
                    f"high surrogate \\u{code:04X} followed by "
                    f"\\u{low:04X}, not a low surrogate"
                )
            return chr(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
        if 0xDC00 <= code <= 0xDFFF:
            self.pos = escape_offset
            raise self.error(f"unpaired low surrogate \\u{code:04X}")
        return chr(code)

    def _hex4(self, escape_offset: int) -> int:
        self.pos += 1  # consume 'u'
        digits = self.source[self.pos : self.pos + 4]
        if len(digits) != 4 or any(
            d not in "0123456789abcdefABCDEF" for d in digits
        ):
            self.pos = escape_offset
            raise self.error(
                f"\\u escape needs four hex digits, found {digits!r}"
            )
        self.pos += 4
        return int(digits, 16)

    def parse_number(self) -> Union[int, float]:
        start = self.pos
        source = self.source
        if self.pos < len(source) and source[self.pos] == "-":
            self.pos += 1
        digits_start = self.pos
        while self.pos < len(source) and source[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits_start:
            self.pos = start
            raise self.error("malformed number")
        if (
            source[digits_start] == "0"
            and self.pos > digits_start + 1
        ):
            self.pos = start
            raise self.error("numbers may not have leading zeros")
        is_float = False
        if self.pos < len(source) and source[self.pos] == ".":
            is_float = True
            self.pos += 1
            fraction_start = self.pos
            while self.pos < len(source) and source[self.pos].isdigit():
                self.pos += 1
            if self.pos == fraction_start:
                self.pos = start
                raise self.error("number fraction needs digits")
        if self.pos < len(source) and source[self.pos] in "eE":
            is_float = True
            self.pos += 1
            if self.pos < len(source) and source[self.pos] in "+-":
                self.pos += 1
            exponent_start = self.pos
            while self.pos < len(source) and source[self.pos].isdigit():
                self.pos += 1
            if self.pos == exponent_start:
                self.pos = start
                raise self.error("number exponent needs digits")
        text = source[start : self.pos]
        if not is_float:
            return int(text)
        value = float(text)
        if not math.isfinite(value):
            self.pos = start
            raise self.error(f"number {text!r} overflows to infinity")
        return value


def parse_json(
    source: Union[str, bytes], max_depth: int = DEFAULT_MAX_DEPTH
) -> JsonValue:
    """Parse one JSON document from the modeled subset.

    >>> parse_json('{"a": [1, true, null]}')
    {'a': [1, True, None]}
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ParseError(
                f"JSON error at offset {error.start}: invalid UTF-8"
            ) from None
    parser = _JsonParser(source, max_depth)
    value = parser.parse_value(0)
    parser.skip_whitespace()
    if parser.pos != len(source):
        raise parser.error("trailing content after the document")
    return value


def _serialize_string(value: str) -> str:
    out: List[str] = ['"']
    for ch in value:
        if ch in _REVERSE_ESCAPES:
            out.append(_REVERSE_ESCAPES[ch])
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def serialize_json(value: JsonValue) -> str:
    """Render a modeled value as a single-line JSON document.

    Deterministic (insertion order, ``repr`` floats) and iterative over
    container members, so the output is byte-stable across the local and
    served paths.
    """
    out: List[str] = []
    _render(value, out)
    return "".join(out)


def _render(value: JsonValue, out: List[str]) -> None:
    if value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif value is None:
        out.append("null")
    elif isinstance(value, str):
        out.append(_serialize_string(value))
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise EncodingError(
                f"non-finite number {value!r} is outside the modeled "
                f"JSON subset"
            )
        out.append(repr(value))
    elif isinstance(value, dict):
        out.append("{")
        for index, (key, member) in enumerate(value.items()):
            if not isinstance(key, str):
                raise EncodingError(
                    f"object key {key!r} is not a string"
                )
            if index:
                out.append(", ")
            out.append(_serialize_string(key))
            out.append(": ")
            _render(member, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for index, item in enumerate(value):
            if index:
                out.append(", ")
            _render(item, out)
        out.append("]")
    else:
        raise EncodingError(
            f"value of type {type(value).__name__} is outside the "
            f"modeled JSON subset"
        )


class JsonLinesParser:
    """Incremental JSON-lines reader with the stream-parser contract.

    Mirrors :class:`repro.serve.stream.StreamParser`: feed byte (or
    str) fragments with :meth:`feed`, drain completed documents with
    :meth:`ready`, finish with :meth:`close`.  One document per
    newline-terminated line; blank lines are skipped; a final line
    without a trailing newline completes at :meth:`close`.
    """

    def __init__(self, max_depth: int = DEFAULT_MAX_DEPTH):
        self.max_depth = max_depth
        self._buffer = b""
        self._ready: List[JsonValue] = []
        self._closed = False
        self._documents = 0
        self._offset = 0  # bytes consumed before the current buffer

    def _parse_line(self, line: bytes) -> None:
        if not line.strip():
            return
        try:
            self._ready.append(parse_json(line, max_depth=self.max_depth))
        except ParseError as error:
            raise ParseError(
                f"JSON stream error in document "
                f"{self._documents + len(self._ready) + 1} "
                f"(near byte {self._offset}): {error}"
            ) from None
        except RecursionError:
            raise ParseError(
                f"JSON stream error in document "
                f"{self._documents + len(self._ready) + 1}: nesting "
                f"exceeded the recursion limit"
            ) from None

    def feed(self, fragment: Union[str, bytes]) -> None:
        """Consume the next fragment of the stream."""
        if self._closed:
            raise ParseError("cannot feed a closed stream parser")
        if isinstance(fragment, str):
            fragment = fragment.encode("utf-8")
        self._buffer += fragment
        while True:
            newline = self._buffer.find(b"\n")
            if newline == -1:
                return
            line = self._buffer[:newline]
            self._buffer = self._buffer[newline + 1 :]
            self._offset += newline + 1
            self._parse_line(line)

    def ready(self) -> List[JsonValue]:
        """Documents completed since the last call (drains the buffer)."""
        done = self._ready
        self._ready = []
        self._documents += len(done)
        return done

    def close(self) -> List[JsonValue]:
        """Signal end of stream; return the final completed documents."""
        if not self._closed:
            self._closed = True
            tail, self._buffer = self._buffer, b""
            self._parse_line(tail)
        return self.ready()

    @property
    def documents_seen(self) -> int:
        """Number of documents completed so far."""
        return self._documents


def iter_json_documents(source, chunk_bytes: Optional[int] = None):
    """Yield the documents of a JSON-lines stream, incrementally.

    Accepts the same sources as the XML stream readers (str, bytes,
    path, file object, iterable of fragments); memory is bounded by the
    largest single line.
    """
    from repro.serve.stream import DEFAULT_CHUNK_BYTES, iter_parsed

    return iter_parsed(
        JsonLinesParser(), source, chunk_bytes or DEFAULT_CHUNK_BYTES
    )
