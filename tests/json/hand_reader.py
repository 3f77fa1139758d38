"""The hand-written JSON reader and writer, kept as a test reference.

``src/`` reads and writes JSON on the standard library's :mod:`json`
scanner and encoder (:mod:`repro.json.jsonio`).  This is the recursive
character-by-character reader and the writer it replaced, unchanged but
for the names and docstrings of the two entry points (:func:`parse`,
:func:`serialize`); ``tests/fuzz/test_json_differential.py`` checks that
both readers agree on every document and both writers byte for byte on
every value.
"""

from __future__ import annotations

import math
from typing import List, Union

from repro.errors import EncodingError, ParseError
from repro.json.jsonio import DEFAULT_MAX_DEPTH, JsonValue

_WHITESPACE = " \t\n\r"
_DIGITS = frozenset("0123456789")
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
        if ch == "-" or ch in _DIGITS:
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
        while self.pos < len(source) and source[self.pos] in _DIGITS:
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
            while self.pos < len(source) and source[self.pos] in _DIGITS:
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
            while self.pos < len(source) and source[self.pos] in _DIGITS:
                self.pos += 1
            if self.pos == exponent_start:
                self.pos = start
                raise self.error("number exponent needs digits")
        text = source[start : self.pos]
        if not is_float:
            try:
                return int(text)
            except ValueError:  # past the int str-conversion limit
                self.pos = start
                raise self.error(
                    f"integer of {len(text.lstrip('-'))} digits is too long"
                ) from None
        value = float(text)
        if not math.isfinite(value):
            self.pos = start
            raise self.error(f"number {text!r} overflows to infinity")
        return value


def parse(
    source: Union[str, bytes], max_depth: int = DEFAULT_MAX_DEPTH
) -> JsonValue:
    """Parse one JSON document: the reference for ``parse_json``."""
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


def serialize(value: JsonValue) -> str:
    """Render a modeled value: the reference for ``serialize_json``."""
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
