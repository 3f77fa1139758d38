"""Differential fuzzing of the JSON reader and writer against the hand-written ones.

``repro.json.jsonio`` reads and writes on the standard library's
:mod:`json` scanner and encoder; :mod:`tests.json.hand_reader` is the
recursive reader and the writer it replaced.  On the perfbench serve
pool and stream rounds (seed 7: 3,940 JSON documents) and on seeded
random mutants of them, both readers must read equal values (types
included: ``1``, ``1.0`` and ``true`` differ) or both raise
:class:`~repro.errors.ParseError`, and both writers must render every
value byte for byte, refusals included.

The one allowed difference: a ``str`` holding a raw lone surrogate is
refused by the new reader, which the reference accepts.

``REPRO_FUZZ_SEEDS`` widens the seed budget as for the other harnesses.
"""

import itertools
import random

import pytest

from perfbench.inputs import serve_pool, stream_rounds
from repro.errors import EncodingError, ParseError
from repro.json.jsonio import parse_json, serialize_json

from tests.fuzz.test_differential import FUZZ_SEEDS
from tests.json import hand_reader

ROUNDS = 40
MUTANTS_PER_SEED = 1000
VALUES_PER_SEED = 300

#: Fragments a mutation inserts: JSON punctuation, escapes (paired,
#: lone and broken surrogates), literals, non-finite numbers, non-ASCII
#: digits, an integer past the str-conversion limit, control and
#: non-ASCII characters, a BOM, a raw lone surrogate, and runs of
#: brackets past the nesting cap.
FRAGMENTS = [
    '"', "\\", "{", "}", "[", "]", ",", ":", " ", "\n", "\t", "\r",
    "0", "1", "9", "-", "+", ".", "e", "E", "00", "1.5e3", "-0",
    "true", "false", "null", "tru", "nul", "NaN", "Infinity", "-Infinity",
    "1e400", "-1e999", "2e-400", "12345678901234567890123456789",
    "\u0661", "-\u0663", "1\u0660", "\uff11", "9" * 5000,
    "\\n", "\\/", '\\"', "\\\\", "\\x", "\\u", "\\u00e9", "\\u0000",
    "\\ud83d\\ude00", "\\ud800", "\\udc00", "\\ud800\\u0041", "\\uD800",
    "\\\\ud800", "\x00", "\x1f", "\x7f", "é", "\u2028", "\U0001f600",
    "\ufeff", "\ud800", '"k": 1, ', '{"a": 1, "a": 2}', "[" * 3,
    "[" * 201, "]" * 201, '{"k": ' * 100,
]


def strict(value):
    """A value's exact shape: JSON equality says ``1 == 1.0 == True``."""
    if isinstance(value, dict):
        return ("object", [(key, strict(member)) for key, member in value.items()])
    if isinstance(value, list):
        return ("array", [strict(item) for item in value])
    return (type(value).__name__, repr(value))


def read(parse, source):
    try:
        return strict(parse(source))
    except ParseError:
        return ParseError


def render(serialize, value):
    try:
        return serialize(value)
    except EncodingError as error:
        return ("EncodingError", str(error))


@pytest.fixture(scope="module")
def corpus():
    """The JSON documents of the seed-7 serve pool and 40 stream rounds."""
    texts = [text for model, text in serve_pool(7) if model.endswith("-json@1")]
    for bodies in itertools.islice(stream_rounds(7), ROUNDS):
        for model, documents in bodies:
            if model.endswith("-json@1"):
                texts.extend(documents)
    return texts


def test_benchmark_documents_read_and_render_alike(corpus):
    assert len(corpus) == 3940
    for text in corpus:
        value = parse_json(text)
        assert strict(value) == strict(hand_reader.parse(text)), text
        assert serialize_json(value) == hand_reader.serialize(value) == text


def has_raw_surrogate(source) -> bool:
    return isinstance(source, str) and any(
        "\ud800" <= ch <= "\udfff" for ch in source
    )


def mutate(rng: random.Random, text: str):
    """One to three random edits; sometimes as UTF-8 bytes with one byte
    replaced, sometimes nested near the depth cap."""
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        roll = rng.random()
        if roll < 0.4:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at:]
        elif roll < 0.6:
            text = text[:at] + text[at + rng.randint(1, 4):]
        elif roll < 0.75:
            start = rng.randrange(len(text) + 1)
            piece = text[start:start + rng.randint(1, 24)]
            text = text[:at] + piece + text[at:]
        elif roll < 0.85:
            text = text[:at] + rng.choice(FRAGMENTS) + text[at + 1:]
        elif roll < 0.95:
            depth = rng.randint(195, 205)
            text = "[" * depth + text + "]" * depth
        else:
            text = text[:at]
    if rng.random() < 0.1 and not has_raw_surrogate(text):
        data = bytearray(text.encode("utf-8"))
        if data:
            data[rng.randrange(len(data))] = rng.randrange(256)
        return bytes(data)
    return text


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_mutants_read_alike(corpus, seed):
    rng = random.Random(seed * 7919 + 3)
    refused = 0
    for _ in range(MUTANTS_PER_SEED):
        source = mutate(rng, rng.choice(corpus))
        new = read(parse_json, source)
        if has_raw_surrogate(source):
            assert new is ParseError, source
            continue
        assert new == read(hand_reader.parse, source), source
        if new is ParseError:
            refused += 1
        else:
            value = parse_json(source)
            assert serialize_json(value) == hand_reader.serialize(value)
    # The mutants exercise both outcomes.
    assert 0 < refused < MUTANTS_PER_SEED


def random_value(rng: random.Random, depth: int = 3):
    """A random value, mostly modeled: control characters, U+2028,
    ``-0.0``, ``5e-324``, tuples and 30-digit ints; rarely a refused leaf
    (non-finite number, non-string key, unmodeled type)."""
    roll = rng.random()
    if depth and roll < 0.25:
        return {
            rng.choice(("a", "b", "é", "\n", "", "k\x01")): random_value(rng, depth - 1)
            for _ in range(rng.randint(0, 3))
        }
    if depth and roll < 0.45:
        items = [random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))]
        return tuple(items) if rng.random() < 0.2 else items
    if roll < 0.01:
        return rng.choice((float("nan"), float("inf"), {1: "a"}, {None: 1}, object()))
    return rng.choice(
        (
            None, True, False, 0, -7, 10**30, -(10**29), 0.0, -0.0, 5e-324,
            1.5, 1e300, "", "x", '"\\', "\x00\x1f\x7f", "\u2028\u2029", "é😀",
            "".join(chr(rng.randrange(0x20)) for _ in range(3)),
        )
    )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_random_values_render_alike(seed):
    rng = random.Random(seed * 6151 + 5)
    for _ in range(VALUES_PER_SEED):
        value = random_value(rng)
        assert render(serialize_json, value) == render(hand_reader.serialize, value)
