"""The slot-map memo on the engine: bounded, shared and exact.

Every outcome is checked against the origin oracle
(:mod:`tests.origins_oracle`), byte for byte, errors included.
"""

import sys
import threading
from pathlib import Path

from repro.codec import load_transformation
from repro.engine import engine_for, execute
from repro.serve import TransformService
from repro.workloads.library import library_document
from repro.xml import parse_xml, serialize_xml

from tests.origins_oracle import oracle_outcome, outcome_bytes

MODELS_DIR = Path(__file__).resolve().parents[2] / "models"
#: Batches per thread: enough that an unserialized clear lands inside
#: another thread's fill.
THREAD_BATCHES = 40


def distinct_documents(count, start=1):
    """Value-bearing JSON documents with pairwise distinct encodings:
    the items of document ``i`` spell ``i`` in binary, a string for a
    one and a number for a zero."""
    return [
        {
            "user": f"u{index}",
            "tags": [
                f"t{bit}" if (index >> bit) & 1 else bit
                for bit in range(index.bit_length())
            ],
        }
        for index in range(start, start + count)
    ]


def rendered(transformation, outcomes):
    return [outcome_bytes(transformation.codec, outcome) for outcome in outcomes]


def oracle(transformation, documents):
    return [
        outcome_bytes(transformation.codec, oracle_outcome(transformation, document))
        for document in documents
    ]


def test_distinct_documents_cross_the_bound_and_match_the_oracle():
    transformation = load_transformation(MODELS_DIR / "rename-json@1.json")
    engine = engine_for(transformation.transducer)
    documents = distinct_documents(2400)
    for start in range(0, len(documents), 48):
        batch = documents[start:start + 48]
        got = rendered(transformation, transformation.apply_batch(batch))
        assert engine.slot_stats["entries"] <= execute.MEMO_LIMIT
        assert got == oracle(transformation, batch), start
    assert engine.cache_stats["evictions"] >= 1
    assert engine.slot_stats["fills"] > execute.MEMO_LIMIT


def test_a_repeated_document_fills_no_slot_map():
    """A document parsed and encoded again gets the same uids (the memo
    pins the subtrees it keys), so its second pass fills nothing."""
    transformation = load_transformation(MODELS_DIR / "library@1.json")
    engine = engine_for(transformation.transducer)
    text = serialize_xml(library_document(3))
    first = transformation.apply(parse_xml(text))
    fills = engine.slot_stats["fills"]
    assert fills > 0
    assert transformation.apply(parse_xml(text)) == first
    assert engine.slot_stats["fills"] == fills


def test_threads_sharing_a_transformation_while_clears_land(monkeypatch):
    """Two threads decode through one memo whose bound keeps firing;
    their outcomes equal the serial ones."""
    monkeypatch.setattr(execute, "MEMO_LIMIT", 64)
    transformation = load_transformation(MODELS_DIR / "rename-json@1.json")
    rounds = [
        [
            distinct_documents(8, start=1 + 8 * (THREAD_BATCHES * thread + batch))
            for batch in range(THREAD_BATCHES)
        ]
        for thread in range(2)
    ]
    serial = [
        [rendered(transformation, transformation.apply_batch(batch)) for batch in mine]
        for mine in rounds
    ]
    engine = engine_for(transformation.transducer)
    engine.clear_cache()
    seen = [None] * len(rounds)
    start = threading.Barrier(len(rounds), timeout=10)

    def drive(slot):
        start.wait()
        seen[slot] = [
            rendered(transformation, transformation.apply_batch(batch))
            for batch in rounds[slot]
        ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=drive, args=(slot,)) for slot in range(len(rounds))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == serial
    assert engine.cache_stats["evictions"] > 0


def test_a_sharded_transformation_bounds_the_parents_memo(monkeypatch):
    """Workers run the machine; the parent only decodes, so its engine
    never sweeps, and the provenance call enforces the bound itself."""
    monkeypatch.setattr(execute, "MEMO_LIMIT", 64)
    transformation = load_transformation(MODELS_DIR / "rename-json@1.json")
    documents = distinct_documents(120)
    with TransformService(transformation.transducer, jobs=2) as service:
        got = transformation.apply_batch(documents, service=service)
    engine = engine_for(transformation.transducer)
    assert engine.cache_stats["batches"] == 0
    assert engine.cache_stats["evictions"] > 0
    assert engine.slot_stats["entries"] <= 64
    assert engine.slot_stats["fills"] > 64
    assert rendered(transformation, got) == oracle(transformation, documents)
