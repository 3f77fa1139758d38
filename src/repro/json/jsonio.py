"""A strict JSON reader/writer for the modeled document subset.

Both directions run on the standard library's :mod:`json` scanner and
encoder.  The modeled values are RFC 8259 minus what a ranked encoding
cannot represent faithfully, so the reader also refuses duplicate keys
(one would silently drop a value), ``NaN``, ``Infinity``, numbers that
overflow (``1e400``), integers too long for ``int``, lone surrogates,
raw or escaped (``"\\ud800"``), and nesting past :data:`DEFAULT_MAX_DEPTH`,
found on the text before the recursive scanner could overflow.

Every refusal is a :class:`~repro.errors.ParseError` reading ``JSON
error at line L, column C: reason`` (counting from 1; in a JSON-lines
stream, L is the stream's line), mirroring :mod:`repro.xml.xmlio`.  The
writer is deterministic: insertion order, ``repr`` numbers, and one
line — which makes the protocol of :class:`JsonLinesParser` self-framing.
"""

from __future__ import annotations

import json
import math
import re
from itertools import accumulate
from typing import List, Optional, Tuple, Union

from repro.errors import EncodingError, ParseError

#: Nesting cap: parse errors beat RecursionErrors from a hostile body.
DEFAULT_MAX_DEPTH = 200

JsonValue = Union[dict, list, str, int, float, bool, None]

_TOO_DEEP = f"nesting depth exceeds the modeled maximum of {DEFAULT_MAX_DEPTH}"

_SURROGATE = re.compile("[\ud800-\udfff]")
#: A raw surrogate, or a ``\u`` escape that may name one.
_SUSPECT = re.compile("[\ud800-\udfff]|\\\\u[dD][89a-fA-F]")
#: Escaped surrogate pairs, dropped before the search for a lone one; an
#: escaped backslash is dropped too, so the scan keeps to escape bounds.
_PAIR = re.compile(r"\\\\|\\u[dD][89abAB]..\\u[dD][c-fC-F]..")
#: A string that does not close matches the last alternative, a lone
#: ``"``, so the scan stops there instead of retrying from every later one.
_TOKEN = re.compile(
    r'"[^"\\]*(?:\\.[^"\\]*)*"|-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?'
    r'|NaN|-?Infinity|true|false|null|[{}\[\],:]|"'
)
#: What the depth scan drops: strings (an unclosed one runs to the end)
#: and runs of other characters, leaving the brackets.
_NOT_BRACKET = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*(?:"|\\?\Z)|[^][{}"]+', re.DOTALL)
_DEPTH = {"[": 1, "{": 1, "]": -1, "}": -1}


def _error(text: str, position: int, reason: str, line: int) -> ParseError:
    line += text.count("\n", 0, position)
    column = position - text.rfind("\n", 0, position)
    return ParseError(f"JSON error at line {line}, column {column}: {reason}")


# Hooks refuse with a bare ValueError, as int() does an overlong integer;
# _refusal then finds the token and says what is wrong with it.
def _object(pairs):
    value = dict(pairs)
    if len(value) != len(pairs):
        raise ValueError
    return value


def _finite(text: str) -> float:
    value = float(text)  # also "NaN", "Infinity" and "-Infinity"
    if not math.isfinite(value):
        raise ValueError
    return value


_DECODER = json.JSONDecoder(
    object_pairs_hook=_object, parse_float=_finite, parse_constant=_finite
)


def _refusal(text: str) -> Optional[Tuple[int, str]]:
    """``(position, reason)`` of the first token, in text order, outside
    the modeled subset; None if there is none before the first syntax
    error, which the decoder reports."""
    containers: List[Optional[set]] = []  # per open one: an object's keys
    key_next = False
    for match in _TOKEN.finditer(text):
        token, at = match.group(), match.start()
        head = token[0]
        if head in "]}":
            del containers[-1:]  # unbalanced text is the decoder's to report
            key_next = False
            continue
        if head in ",:":
            key_next = head == "," and bool(containers) and containers[-1] is not None
            continue
        is_key, key_next = key_next and head == '"', False
        if not is_key and len(containers) > DEFAULT_MAX_DEPTH:
            return at, _TOO_DEEP
        if head in "[{":
            containers.append(set() if head == "{" else None)
            key_next = head == "{"
        elif head == '"':
            try:
                string = json.loads(token)
            except ValueError:
                return None
            surrogate = _SURROGATE.search(string)
            if surrogate:
                code = ord(surrogate.group())
                return at, f"lone surrogate U+{code:04X} is not a character"
            if is_key and string in containers[-1]:
                return at, f"duplicate object key {string!r}"
            if is_key:
                containers[-1].add(string)
        elif token in ("NaN", "Infinity", "-Infinity"):
            return at, f"non-finite number {token} is outside the modeled JSON subset"
        elif any(mark in token for mark in ".eE") and token[-1].isdigit():
            if math.isinf(float(token)):
                return at, f"number {token!r} overflows to infinity"
        elif token[-1].isdigit():
            try:
                int(token)
            except ValueError:
                digits = len(token.lstrip("-"))
                return at, f"integer of {digits} digits is too long to convert"
    return None


def _too_deep(text: str) -> bool:
    """Whether brackets outside strings may nest past the cap: a linear
    over-estimate (an empty innermost container, invalid text) that
    :func:`_refusal` settles."""
    if text.count("[") + text.count("{") <= DEFAULT_MAX_DEPTH:
        return False
    brackets = _NOT_BRACKET.sub("", text)
    depths = accumulate(map(_DEPTH.__getitem__, brackets))
    return max(depths, default=0) > DEFAULT_MAX_DEPTH


def _parse(text: Union[str, bytes], line: int) -> JsonValue:
    """One document whose first line is line ``line`` of its input."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as error:
            prefix = text[: error.start].decode("utf-8")
            raise _error(prefix, len(prefix), "invalid UTF-8", line) from None
    # Surrogates and deep nesting are found on the text, the rest by hooks.
    refusal = None
    if _SUSPECT.search(_PAIR.sub("", text)) or _too_deep(text):
        refusal = _refusal(text)
    if refusal is None:
        try:
            return _DECODER.decode(text)
        except json.JSONDecodeError as error:
            # Some messages end "... at" before the position json appends.
            reason = error.msg[:-3] if error.msg.endswith(" at") else error.msg
            raise _error(text, error.pos, reason, line) from None
        except ValueError:
            refusal = _refusal(text)
    raise _error(text, *refusal, line)


def parse_json(source: Union[str, bytes]) -> JsonValue:
    """Parse one JSON document from the modeled subset.

    >>> parse_json('{"a": [1, true, null]}')
    {'a': [1, True, None]}
    """
    return _parse(source, 1)


_ENCODER = json.JSONEncoder(
    ensure_ascii=False, separators=(", ", ": "), allow_nan=False, check_circular=False
)
#: Types that need no check (the walk skips the call for them).
_PLAIN = {str, int, bool, type(None)}


def _check(value: JsonValue) -> None:
    """Refuse non-string keys, non-finite numbers and other types, in order."""
    if isinstance(value, dict):
        for key, member in value.items():
            if not isinstance(key, str):
                raise EncodingError(f"object key {key!r} is not a string")
            if type(member) not in _PLAIN:
                _check(member)
    elif isinstance(value, (list, tuple)):
        for item in value:
            if type(item) not in _PLAIN:
                _check(item)
    elif isinstance(value, float) and not math.isfinite(value):
        raise EncodingError(
            f"non-finite number {value!r} is outside the modeled JSON subset"
        )
    elif not isinstance(value, (str, int, float, type(None))):
        raise EncodingError(
            f"value of type {type(value).__name__} is outside the modeled JSON subset"
        )


def serialize_json(value: JsonValue) -> str:
    """Render a modeled value as a single-line JSON document."""
    _check(value)
    try:
        return _ENCODER.encode(value)
    except ValueError as error:  # an int past the str-conversion limit
        raise EncodingError(f"integer is too long to render: {error}") from None


class JsonLinesParser:
    """Incremental JSON-lines reader with the contract of
    :class:`repro.xml.xmlio.StreamParser`: :meth:`feed` byte (or str)
    fragments, drain completed documents with :meth:`ready`, finish with
    :meth:`close`.  One document per line; blank lines are skipped."""

    def __init__(self):
        self._partial: List[bytes] = []  # the unterminated line so far
        self._ready: List[JsonValue] = []
        self._closed = False
        self._documents = 0
        self._lines = 0  # lines of the stream read so far

    def _parse_line(self, line: bytes) -> None:
        self._lines += 1
        if line.strip():
            self._ready.append(_parse(line, self._lines))

    def feed(self, fragment: Union[str, bytes]) -> None:
        """Consume the next fragment of the stream."""
        if self._closed:
            raise ParseError("cannot feed a closed stream parser")
        if isinstance(fragment, str):  # a lone surrogate stays refusable
            fragment = fragment.encode("utf-8", "surrogatepass")
        *lines, rest = fragment.split(b"\n")
        if lines:
            lines[0] = b"".join(self._partial) + lines[0]
            self._partial = []
        for line in lines:
            self._parse_line(line)
        self._partial.append(rest)

    def ready(self) -> List[JsonValue]:
        """Documents completed since the last call (drains the buffer)."""
        done, self._ready = self._ready, []
        self._documents += len(done)
        return done

    def close(self) -> List[JsonValue]:
        """Signal end of stream; return the final completed documents."""
        if not self._closed:
            self._closed = True
            self._parse_line(b"".join(self._partial))
        return self.ready()

    @property
    def documents_seen(self) -> int:
        """Number of documents completed so far."""
        return self._documents


def iter_json_documents(source, chunk_bytes: Optional[int] = None):
    """Yield the documents of a JSON-lines stream, incrementally, from any
    source the XML stream readers take; memory is bounded by the longest
    line."""
    from repro.serve.stream import DEFAULT_CHUNK_BYTES, iter_parsed

    return iter_parsed(JsonLinesParser(), source, chunk_bytes or DEFAULT_CHUNK_BYTES)
