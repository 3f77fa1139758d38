"""Differential fuzzing of value-bearing documents against the origin oracle.

Every stock XML and JSON bundle translates random documents (valid,
mutated, and outside the machine's domain) through
``Transformation.apply_batch``: in process, and sharded over two
workers, which receive value-bearing documents like any other.  Each
outcome, rendered output or error type + message, must equal the
oracle's byte for byte (:mod:`tests.origins_oracle`: the origin-tracking
interpreter and preorder node indexes, no engine and no slot-map memo).

``REPRO_FUZZ_SEEDS`` widens the seed budget as for the other harnesses.
"""

import random
from pathlib import Path

import pytest

from repro.codec import load_transformation
from repro.serve import TransformService

from tests.fuzz.test_differential import FUZZ_SEEDS
from tests.fuzz.test_dtd_encoder_differential import random_document
from tests.fuzz.test_server_differential import random_json_document
from tests.origins_oracle import oracle_outcome, outcome_bytes

MODELS_DIR = Path(__file__).resolve().parents[2] / "models"

#: The stock bundles; every one but xmlflip carries values.
BUNDLES = [
    "library@1",
    "addressbook@1",
    "xmlflip@1",
    "identity-json@1",
    "rename-json@1",
    "wrap-json@1",
    "defaults-json@1",
    "redact-json@1",
]
DOCUMENTS_PER_SEED = 12


def random_documents(transformation, seed):
    rng = random.Random(seed * 4099 + len(transformation.transducer.rules))
    if transformation.codec.name == "json":
        return [random_json_document(rng) for _ in range(DOCUMENTS_PER_SEED)]
    dtd = transformation.codec.input_encoder.dtd
    return [
        random_document(rng, dtd, rng.choice((0.0, 0.0, 0.2)))
        for _ in range(DOCUMENTS_PER_SEED)
    ]


def expected_outcomes(transformation, documents):
    return [
        outcome_bytes(transformation.codec, oracle_outcome(transformation, document))
        for document in documents
    ]


@pytest.mark.parametrize("bundle", BUNDLES)
def test_in_process_matches_the_oracle(bundle):
    transformation = load_transformation(MODELS_DIR / f"{bundle}.json")
    kinds = set()
    for seed in FUZZ_SEEDS:
        documents = random_documents(transformation, seed)
        expected = expected_outcomes(transformation, documents)
        got = [
            outcome_bytes(transformation.codec, outcome)
            for outcome in transformation.apply_batch(documents)
        ]
        assert got == expected, seed
        kinds.update(kind for kind, _ in expected)
    assert "document" in kinds, kinds


@pytest.mark.parametrize("bundle", BUNDLES)
def test_two_workers_match_the_oracle(bundle):
    transformation = load_transformation(MODELS_DIR / f"{bundle}.json")
    documents = [
        document
        for seed in FUZZ_SEEDS
        for document in random_documents(transformation, seed)
    ]
    with TransformService(transformation.transducer, jobs=2, chunk_size=5) as pool:
        outcomes = transformation.apply_batch(documents, service=pool)
        assert len(pool.stats["shards"]) >= 1  # workers did translate
    got = [outcome_bytes(transformation.codec, outcome) for outcome in outcomes]
    assert got == expected_outcomes(transformation, documents)


def test_the_corpus_carries_values_and_errors():
    """The comparisons above are not vacuous: documents carry values,
    outputs copy them, and every error class the path reports occurs."""
    copied = 0
    kinds = set()
    for bundle in BUNDLES:
        transformation = load_transformation(MODELS_DIR / f"{bundle}.json")
        for seed in FUZZ_SEEDS:
            for document in random_documents(transformation, seed):
                outcome = oracle_outcome(transformation, document)
                kind, text = outcome_bytes(transformation.codec, outcome)
                kinds.add(kind)
                copied += kind == "document" and any(
                    mark in text for mark in ('"h"', '"al"', ">t")
                )
    assert copied > 20
    assert {"document", "EncodingError", "UndefinedTransductionError"} <= kinds, kinds
