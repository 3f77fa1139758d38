"""Seeded inputs of the three workloads.

Every generator is a pure function of its seed: the same seed yields the
same document texts, stream bodies and learning targets, in the same
order.  The program under test only ever sees these generated inputs.
"""

from __future__ import annotations

import itertools
import json
import random
import string
from typing import Dict, Iterator, List, Tuple

from repro.json.jsonio import serialize_json
from repro.workloads.flip import flip_input
from repro.workloads.jsonwl import CONFIG_KEYS, RENAME_MAP
from repro.workloads.library import library_book
from repro.workloads.xmlflip import xmlflip_document
from repro.xml import element, serialize_xml

#: The serve-mixed model mix: every registry kind (raw DTOP, pipeline,
#: XML bundle, JSON bundle) and both JSON rule shapes.
SERVE_MODELS = (
    "flip@1",
    "swap-twice@1",
    "xmlflip@1",
    "library@1",
    "rename-json@1",
    "redact-json@1",
)
#: Pool documents per serve-mixed model; requests draw with replacement.
POOL_PER_MODEL = 50
#: Longest a-list / b-list of the flip-shaped documents.  The DTD encoder
#: grows superlinearly in ``xmlflip`` width, so this bounds the tail.
MAX_LIST = 24

#: Documents per transform_stream body.  Must stay below the batcher's
#: ``max_pending`` (1024): a longer body sheds its excess documents as
#: ``OverloadedError`` (see README.md, "Stream admission").
BODY_DOCS = 96
#: The stream-distinct models; a round sends one body of each, in order.
STREAM_MODELS = ("rename-json@1", "library@1")
#: Share of stream JSON documents that carry no scalar values, so the
#: compiled engine (not the origin interpreter) translates them.
VALUE_FREE_SHARE = 0.5

#: JSON keys: the config key universe minus the rename targets, since an
#: object holding both ``user`` and ``username`` has no renamed image.
JSON_KEYS = tuple(key for key in CONFIG_KEYS if key not in RENAME_MAP.values())

#: Learning targets: ``random_total_dtop`` state counts cycle through this range.
MIN_STATES, MAX_STATES = 2, 12


def _word(rng: random.Random, low: int = 2, high: int = 8) -> str:
    return "".join(
        rng.choice(string.ascii_lowercase) for _ in range(rng.randint(low, high))
    )


def _json_value(rng: random.Random, depth: int, value_free: bool):
    """A config-shaped JSON value over :data:`JSON_KEYS`."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if value_free:
            return rng.choice((True, False, None))
        return rng.choice(
            (_word(rng), _word(rng), rng.randint(0, 9999), True, False, None)
        )
    if roll < 0.8:
        keys = rng.sample(JSON_KEYS, rng.randint(1, 4))
        return {key: _json_value(rng, depth - 1, value_free) for key in keys}
    return [_json_value(rng, depth - 1, value_free) for _ in range(rng.randint(1, 4))]


def json_document(rng: random.Random, value_free: bool) -> str:
    """One JSON document (an object at the top) as canonical text."""
    keys = rng.sample(JSON_KEYS, rng.randint(2, 5))
    value = {key: _json_value(rng, 2, value_free) for key in keys}
    return serialize_json(value)


def library_document(rng: random.Random, min_books: int, max_books: int) -> str:
    books = [
        library_book(_word(rng), _word(rng), str(rng.randint(1900, 2030)))
        for _ in range(rng.randint(min_books, max_books))
    ]
    return serialize_xml(element("LIBRARY", *books), indent=None)


def _list_lengths(rng: random.Random, total: int) -> Tuple[int, int]:
    """Split ``total`` list nodes into two lists of at most MAX_LIST each."""
    first = rng.randint(max(0, total - MAX_LIST), min(MAX_LIST, total))
    return first, total - first


def _serve_document(rng: random.Random, model: str, rank: int) -> str:
    """The ``rank``-th pool document of ``model``.

    Sizes are stratified by rank, so every seed's pool spans the same
    size range evenly (the largest ``xmlflip`` documents set the tail);
    the seed picks shapes and contents within each size.
    """
    total = round(rank * 2 * MAX_LIST / (POOL_PER_MODEL - 1))
    if model in ("flip@1", "swap-twice@1"):
        return str(flip_input(*_list_lengths(rng, total)))
    if model == "xmlflip@1":
        document = xmlflip_document(*_list_lengths(rng, total))
        return serialize_xml(document, indent=None)
    if model == "library@1":
        books = 1 + (rank - 1) % 6 if rank else 0
        return library_document(rng, books, books)
    return json_document(rng, value_free=rank % 5 == 0)


def serve_pool(seed: int) -> List[Tuple[str, str]]:
    """The serve-mixed pool: ``(model, document text)`` pairs.

    Documents within a model are distinct, so memo hits come from the
    request stream's repeats, not from duplicate pool entries.
    """
    rng = random.Random(f"serve-pool/{seed}")
    pool: List[Tuple[str, str]] = []
    for model in SERVE_MODELS:
        seen = set()
        while len(seen) < POOL_PER_MODEL:
            text = _serve_document(rng, model, len(seen))
            if text not in seen:
                seen.add(text)
                pool.append((model, text))
    return pool


def serve_requests(seed: int, pool_size: int) -> Iterator[int]:
    """Endless pool indexes in shuffled passes over the whole pool.

    Every document is requested once per pass, so by the end of a run
    each has been sent equally often (give or take one) and the tail does
    not hang on how often the seed happened to draw the widest documents.
    """
    rng = random.Random(f"serve-requests/{seed}")
    order = list(range(pool_size))
    while True:
        rng.shuffle(order)
        yield from order


def stream_rounds(seed: int) -> Iterator[List[Tuple[str, List[str]]]]:
    """Endless rounds of bodies; every document is distinct from all others.

    A round holds one ``(model, documents)`` body per model of
    :data:`STREAM_MODELS`.  JSON bodies mix value-bearing and value-free
    documents; library bodies hold 1–6 books each, so every library
    document carries text values.
    """
    rng = random.Random(f"stream/{seed}")
    seen = set()
    while True:
        bodies = []
        for model in STREAM_MODELS:
            documents: List[str] = []
            while len(documents) < BODY_DOCS:
                if model == "library@1":
                    text = library_document(rng, 1, 6)
                else:
                    text = json_document(rng, rng.random() < VALUE_FREE_SHARE)
                if text not in seen:
                    seen.add(text)
                    documents.append(text)
            bodies.append((model, documents))
        yield bodies


def stream_body_bytes(model: str, documents: List[str]) -> bytes:
    """The wire body: JSON lines, or one XML root wrapping the forest."""
    if model == "library@1":
        return ("<batch>" + "".join(documents) + "</batch>").encode("utf-8")
    return ("\n".join(documents) + "\n").encode("utf-8")


def learn_targets(seed: int) -> Iterator[Tuple[int, int]]:
    """Endless ``(num_states, machine seed)`` specs for ``random_total_dtop``.

    State counts cycle through MIN_STATES..MAX_STATES, so every seed
    learns the same size mix; the seed picks the machines.
    """
    rng = random.Random(f"learn/{seed}")
    for states in itertools.cycle(range(MIN_STATES, MAX_STATES + 1)):
        yield states, rng.randrange(1 << 31)


def carries_values(model: str, text: str) -> bool:
    """Whether a bundle document has character data or JSON scalars."""
    if model.endswith("-json@1"):

        def scalar(value) -> bool:
            if isinstance(value, dict):
                return any(scalar(item) for item in value.values())
            if isinstance(value, list):
                return any(scalar(item) for item in value)
            return isinstance(value, (str, int, float)) and not isinstance(
                value, bool
            )

        return scalar(json.loads(text))
    return model == "library@1" and "<BOOK>" in text


def describe_documents(pairs: List[Tuple[str, str]]) -> Dict[str, object]:
    """Measured input properties of ``(model, text)`` pairs."""
    sizes = [len(text.encode("utf-8")) for _model, text in pairs]
    bundle = [
        (model, text) for model, text in pairs if model not in ("flip@1", "swap-twice@1")
    ]
    mix: Dict[str, int] = {}
    for model, _text in pairs:
        mix[model] = mix.get(model, 0) + 1
    return {
        "documents": len(pairs),
        "model_mix": mix,
        "bytes_min": min(sizes),
        "bytes_max": max(sizes),
        "value_bearing_share_of_bundle_docs": round(
            sum(carries_values(m, t) for m, t in bundle) / max(1, len(bundle)), 3
        ),
    }
