"""Bounded memory under distinct traffic through a live server.

Every document of the soak is distinct, so no memo entry is ever reused
across bodies: without the engine's pair bound the memo (and the
interned trees it pins) grows with the traffic.  The bound is patched
small so a few thousand documents cross it many times.  Half of the
documents carry values, which run on the engine like the rest.
"""

import gc
import random
import shutil
from pathlib import Path

import pytest

from repro.engine import execute
from repro.engine.execute import Engine
from repro.json.jsonio import serialize_json
from repro.server import ServerClient, ServerThread
from repro.server.metrics import validate_exposition
from repro.trees.tree import interned_count
from repro.workloads.jsonwl import CONFIG_KEYS, RENAME_MAP

STOCK_MODELS = Path(__file__).resolve().parents[2] / "models"
MODEL = "rename-json@1"
LIMIT = 256
DOCUMENTS = 2000
BODY_DOCS = 100
#: Live trees the soak may leave behind once collected.  Unbounded, the
#: memo pins tens of thousands (every distinct input subtree and its
#: image); bounded, what remains is at most ``LIMIT`` pairs plus one
#: batch's demand.
INTERN_CEILING = 5000
#: Object keys; the rename targets are left out, since an object holding
#: both ``user`` and ``username`` has no renamed image.
KEYS = [key for key in CONFIG_KEYS if key not in RENAME_MAP.values()]


def _value(rng, depth, scalars):
    """A config-shaped JSON value; strings and numbers (values the
    side table carries) only if ``scalars``."""
    roll = rng.random()
    if depth <= 0 or roll < 0.3:
        if scalars and rng.random() < 0.5:
            return rng.choice((f"s{rng.randrange(1000)}", rng.randrange(1000)))
        return rng.choice((True, False, None))
    if roll < 0.8:
        return {
            key: _value(rng, depth - 1, scalars)
            for key in rng.sample(KEYS, rng.randint(1, 4))
        }
    return [_value(rng, depth - 1, scalars) for _ in range(rng.randint(1, 4))]


def distinct_documents(count, seed):
    """Distinct documents; every other one carries values."""
    rng = random.Random(seed)
    seen = set()
    while len(seen) < count:
        keys = rng.sample(KEYS, rng.randint(2, 5))
        scalars = len(seen) % 2 == 1
        text = serialize_json({key: _value(rng, 2, scalars) for key in keys})
        if text not in seen:
            seen.add(text)
            yield text


@pytest.fixture
def json_models(tmp_path):
    directory = tmp_path / "models"
    directory.mkdir()
    shutil.copy(STOCK_MODELS / f"{MODEL}.json", directory)
    return directory


def body_demand(entry, engine, body):
    """Pairs a cold engine memoizes for the whole body: an upper bound
    on the demand of any one batch cut from it."""
    parser = entry.codec.stream_parser()
    parser.feed(body)
    trees = [
        entry.codec.input_encoder.encode_with_values(document)[0]
        for document in parser.close()
    ]
    alone = Engine(engine.compiled)
    alone.run_batch_outcomes(trees)
    return alone.memo_size()


def gauge(samples, name):
    return samples[name][(("model", MODEL),)]


def test_distinct_stream_soak_keeps_memo_and_intern_table_flat(
    monkeypatch, json_models
):
    monkeypatch.setattr(execute, "MEMO_LIMIT", LIMIT)
    documents = list(distinct_documents(DOCUMENTS, seed=3))
    gc.collect()
    baseline = interned_count()
    with ServerThread(json_models) as handle, ServerClient(
        handle.host, handle.port
    ) as client:
        entry = handle.server.registry.get(MODEL)
        for start in range(0, DOCUMENTS, BODY_DOCS):
            body = "\n".join(documents[start:start + BODY_DOCS]) + "\n"
            outcomes = client.transform_stream(MODEL, body)
            assert all(isinstance(item, str) for item in outcomes)
            assert any('"s' in item for item in outcomes)  # values came back
            engine = entry.peek_engine()
            samples = validate_exposition(client.metrics_text())
            entries = gauge(samples, "repro_engine_memo_entries")
            assert entries == engine.memo_size()
            assert entries <= LIMIT + body_demand(entry, engine, body)
        stats = engine.cache_stats
        assert stats["evictions"] > 0
        assert gauge(samples, "repro_memo_evictions_total") == (
            stats["evictions"]
        )
        assert gauge(samples, "repro_engine_memo_hits_total") == stats["hits"]
        assert gauge(samples, "repro_engine_memo_misses_total") == (
            stats["misses"]
        )
        # The scrape refreshed the intern gauge from the live table.
        assert samples["repro_intern_live"][()] > 0
        # Counters are cumulative across evictions.
        assert stats["misses"] > stats["entries"]
        gc.collect()
        assert interned_count() - baseline < INTERN_CEILING
