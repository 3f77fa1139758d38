"""Differential fuzzing of the one-pass DTD encoder against the span parser.

``DTDEncoder`` parses an element's child word in one left-to-right pass
when its content model has unambiguous lookahead, and keeps the
CYK-style span parser for the other models.  The span parser is the
reference: an encoder whose plans are cleared runs it on every element.
Over random acyclic DTDs under every ``fuse``/``compact_lists``/
``abstract_values`` combination, and random documents whose child words
are valid, mutated at the top, or mutated one or more element levels
down, both encoders must agree **byte for byte**: encoded tree, value
table, and error type + message (``AmbiguousContentModelError``
included).  Successful encodings must also decode back to the document.

``REPRO_FUZZ_SEEDS`` widens the seed budget as for the other harnesses.
"""

import itertools
import random

import pytest

from repro.errors import DTDError, ReproError
from repro.xml.dtd import (
    DTD,
    Alt,
    ElementRe,
    Empty,
    Opt,
    PCDataRe,
    Plus,
    Seq,
    Star,
)
from repro.xml.encode import DTDEncoder
from repro.xml.unranked import PCDATA_LABEL, UTree

from tests.fuzz.test_differential import FUZZ_SEEDS

FLAGS = list(itertools.product((False, True), repeat=3))
#: Random DTDs per seed, and documents per DTD and flag combination.
DTDS_PER_SEED = 6
DOCUMENTS_PER_DTD = 25
#: Elements per DTD; element ``e{i}`` may only contain ``e{j}``, j > i.
ELEMENTS = 5
#: Node budget of one generated document (the span parser is cubic).
NODE_BUDGET = 60


def random_model(rng, names, depth):
    """A random content model over ``names`` (and ``#PCDATA``)."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        if not names or rng.random() < 0.15:
            return PCDataRe()
        return ElementRe(rng.choice(names))
    if roll < 0.6:
        kind = rng.choice((Star, Plus, Opt))
        return kind(random_model(rng, names, depth - 1))
    kind = rng.choice((Seq, Alt))
    parts = tuple(
        random_model(rng, names, depth - 1) for _ in range(rng.randint(2, 3))
    )
    return kind(parts)


def random_dtd(rng):
    names = [f"e{i}" for i in range(ELEMENTS)]
    elements = {}
    for index, name in enumerate(names):
        later = names[index + 1 :]
        roll = rng.random()
        if not later or roll < 0.15:
            elements[name] = rng.choice((Empty(), PCDataRe()))
        else:
            # Two names at most, so first/follow conflicts are common.
            pool = rng.sample(later, min(2, len(later)))
            elements[name] = random_model(rng, pool, rng.randint(1, 3))
    return DTD(names[0], elements)


def sample_word(rng, model):
    """A word of element names / ``PCDATA_LABEL`` that ``model`` accepts."""
    if isinstance(model, PCDataRe):
        return [PCDATA_LABEL]
    if isinstance(model, ElementRe):
        return [model.name]
    if isinstance(model, (Star, Plus, Opt)):
        low = 1 if isinstance(model, Plus) else 0
        high = 1 if isinstance(model, Opt) else 3
        return [
            token
            for _ in range(rng.randint(low, high))
            for token in sample_word(rng, model.inner)
        ]
    if isinstance(model, Alt):
        return sample_word(rng, rng.choice(model.parts))
    if isinstance(model, Seq):
        return [token for part in model.parts for token in sample_word(rng, part)]
    return []  # Empty


def mutate(rng, word, names):
    word = list(word)
    edit = rng.randrange(4)
    position = rng.randint(0, len(word))
    token = rng.choice(names + [PCDATA_LABEL])
    if edit == 0 or not word:
        word.insert(position, token)
    elif edit == 1:
        del word[min(position, len(word) - 1)]
    elif edit == 2:
        word[min(position, len(word) - 1)] = token
    else:
        word.insert(position, word[min(position, len(word) - 1)])
    return word


def random_element(rng, dtd, name, mutation_rate, budget, broken=False):
    """An element ``name`` whose child word is mutated if ``broken``.

    Child elements below are mutated at ``mutation_rate``; ``budget`` is
    a one-item list of nodes left to generate.
    """
    budget[0] -= 1
    word = sample_word(rng, dtd.elements[name])
    if broken:
        word = mutate(rng, word, sorted(dtd.elements))
    children = []
    for token in word:
        if budget[0] <= 0:
            break
        if token == PCDATA_LABEL:
            budget[0] -= 1
            # A text of None (no value) shifts the value table.
            value = None if rng.random() < 0.1 else f"t{rng.randrange(100)}"
            children.append(UTree(PCDATA_LABEL, (), value))
        else:
            children.append(
                random_element(
                    rng,
                    dtd,
                    token,
                    mutation_rate,
                    budget,
                    broken=rng.random() < mutation_rate,
                )
            )
    return UTree(name, tuple(children))


def random_document(rng, dtd, mutation_rate):
    """A document of ``dtd``; each child word is mutated at ``mutation_rate``."""
    return random_element(
        rng,
        dtd,
        dtd.start,
        mutation_rate,
        [NODE_BUDGET],
        broken=rng.random() < mutation_rate,
    )


def outcome(encoder, document):
    try:
        tree, values = encoder.encode_with_values(document)
    except ReproError as error:
        return (type(error).__name__, str(error))
    return ("tree", str(tree), sorted(values.items()))


def span_parser_encoder(dtd, fuse, compact_lists, abstract_values):
    """The reference: an encoder that span-parses every element."""
    encoder = DTDEncoder(
        dtd, fuse=fuse, compact_lists=compact_lists, abstract_values=abstract_values
    )
    encoder._plans.clear()
    return encoder


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_one_pass_encoder_matches_span_parser(seed):
    rng = random.Random(seed * 7727 + 5)
    kinds = set()
    planned = fallback = 0
    for _ in range(DTDS_PER_SEED):
        dtd = random_dtd(rng)
        documents = [
            random_document(rng, dtd, rng.choice((0.0, 0.1, 0.3)))
            for _ in range(DOCUMENTS_PER_DTD)
        ]
        for encoder, reference in encoders(dtd):
            planned += len(encoder._plans)
            fallback += sum(
                1
                for name, model in dtd.elements.items()
                if name not in encoder._plans and not isinstance(model, Empty)
            )
            for document in documents:
                got = outcome(encoder, document)
                assert got == outcome(reference, document), (dtd, document)
                kinds.add(got[0])
                if got[0] == "tree":
                    tree, values = encoder.encode_with_values(document)
                    if all(
                        node.text is not None
                        for _, node in document.subtrees()
                        if node.is_text
                    ):
                        assert encoder.decode(tree, values) == document
                    assert encoder.decode(tree) == document.strip_text()
    # The sweep must exercise both parsers, successes and rejections.
    assert planned and fallback, (planned, fallback)
    assert {"tree", "EncodingError"} <= kinds, kinds


def encoders(dtd, flags=FLAGS):
    """(one-pass encoder, span-parser reference) per flag combination."""
    for fuse, compact, abstract in flags:
        try:
            encoder = DTDEncoder(
                dtd, fuse=fuse, compact_lists=compact, abstract_values=abstract
            )
        except DTDError:
            continue  # an encoding symbol needed with two ranks
        yield encoder, span_parser_encoder(dtd, fuse, compact, abstract)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_errors_one_level_down_match(seed):
    """A valid top-level word whose first invalid spot is in a child."""
    rng = random.Random(seed * 104729 + 17)
    compared = 0
    for _ in range(DTDS_PER_SEED * 4):
        dtd = random_dtd(rng)
        word = sample_word(rng, dtd.elements[dtd.start])
        targets = [index for index, token in enumerate(word) if token != PCDATA_LABEL]
        if not targets:
            continue
        broken_at = rng.choice(targets)
        budget = [NODE_BUDGET]
        document = UTree(
            dtd.start,
            tuple(
                UTree(PCDATA_LABEL, (), "x")
                if token == PCDATA_LABEL
                else random_element(
                    rng, dtd, token, 0.0, budget, broken=index == broken_at
                )
                for index, token in enumerate(word)
            ),
        )
        for encoder, reference in encoders(dtd):
            assert outcome(encoder, document) == outcome(reference, document)
            compared += 1
    assert compared


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_every_short_word_matches(seed):
    """Random models over two EMPTY elements, every word of length <= 4.

    All flags off and all on suffice here: the flags change what is
    built, not how the word is parsed, and the random-DTD test covers
    all eight combinations.
    """
    rng = random.Random(seed * 15485863 + 29)
    alphabet = ("a", "b", PCDATA_LABEL)
    words = [
        word
        for length in range(5)
        for word in itertools.product(alphabet, repeat=length)
    ]
    for _ in range(DTDS_PER_SEED * 2):
        model = random_model(rng, ["a", "b"], rng.randint(1, 4))
        dtd = DTD("r", {"r": model, "a": Empty(), "b": Empty()})
        for encoder, reference in encoders(dtd, [FLAGS[0], FLAGS[-1]]):
            for word in words:
                document = UTree(
                    "r",
                    tuple(
                        UTree(PCDATA_LABEL, (), "x")
                        if token == PCDATA_LABEL
                        else UTree(token)
                        for token in word
                    ),
                )
                assert outcome(encoder, document) == outcome(reference, document), (
                    model,
                    word,
                )
