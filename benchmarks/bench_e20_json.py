"""E20 — JSON ingestion and serving throughput.

Not a paper experiment: this benchmark prices the JSON layer added in
ISSUE 9 the way E15/E16 priced the XML one.

(a) **codec**: strict parse → ranked encode → decode → serialize
    round-trips over a config-shaped corpus, reported in documents/s
    and encoded nodes/s, with full fidelity asserted.
(b) **serving**: the same corpus replayed through a live server
    hosting the stock ``rename-json@1`` bundle, byte-identical to the
    local JSON ``Transformation``, reported in requests/s.

Results land in ``BENCH_json.json`` (or ``$BENCH_JSON_JSON``) for the
bench-smoke artifact.
"""

import json
import os
import random
import time

from repro.json.encode import JsonEncoder
from repro.json.jsonio import parse_json, serialize_json
from repro.server import ServerClient, ServerThread
from repro.workloads.jsonwl import CONFIG_KEYS, config_rename_transformation
from repro.workloads.stock import build_stock_models

from benchmarks.conftest import report

_RESULTS_PATH = os.environ.get("BENCH_JSON_JSON", "BENCH_json.json")
_RESULTS = {}

#: Measurement rounds per protocol (min is reported).
ROUNDS = 3
#: Documents in the replay corpus.
CORPUS_SIZE = 400


def _flush_results() -> None:
    with open(_RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


#: Keys safe under the rename machine: a doc holding both "pwd" and
#: "password" would rename into a duplicate key, which is an error
#: (correctly) — but this benchmark measures throughput, not errors.
_SAFE_KEYS = tuple(k for k in CONFIG_KEYS if k not in ("username", "password"))


def _random_document(rng, depth=0):
    if depth < 2 and rng.random() < 0.6:
        if rng.random() < 0.7:
            chosen = rng.sample(_SAFE_KEYS, rng.randint(1, 4))
            return {
                key: _random_document(rng, depth + 1)
                for key in sorted(chosen)
            }
        return [
            _random_document(rng, depth + 1)
            for _ in range(rng.randint(0, 4))
        ]
    return rng.choice(
        [True, False, None, rng.randint(-9999, 9999)]
        + ["h", "i", "al", "am", "config value"]
    )


def _corpus():
    rng = random.Random(0x0E20)
    return [serialize_json(_random_document(rng)) for _ in range(CORPUS_SIZE)]


def test_e20_json_codec_roundtrip_throughput(benchmark):
    corpus = _corpus()
    encoder = JsonEncoder()
    total_nodes = sum(
        encoder.encode(parse_json(text)).size for text in corpus
    )

    def roundtrip_pass():
        for text in corpus:
            document = parse_json(text)
            tree, values = encoder.encode_with_values(document)
            decoded = encoder.decode(tree, values)
            assert serialize_json(decoded) == text

    def race():
        best = float("inf")
        for _ in range(ROUNDS):
            start = time.perf_counter()
            roundtrip_pass()
            best = min(best, time.perf_counter() - start)
        return best

    best_s = benchmark.pedantic(race, rounds=1, iterations=1)
    docs_per_s = len(corpus) / best_s
    _RESULTS["codec"] = {
        "documents": len(corpus),
        "total_nodes": total_nodes,
        "rounds": ROUNDS,
        "best_s": best_s,
        "docs_per_s": docs_per_s,
        "nodes_per_s": total_nodes / best_s,
    }
    _flush_results()
    report(
        "E20/codec",
        "JSON parse→encode→decode→serialize round-trips with full fidelity",
        f"{len(corpus)} docs ({total_nodes} nodes): {best_s * 1e3:.1f} ms "
        f"— {docs_per_s:,.0f} docs/s",
    )


def test_e20_served_json_matches_local(benchmark, tmp_path):
    models = tmp_path / "models"
    models.mkdir()
    build_stock_models(models)
    corpus = _corpus()
    local = config_rename_transformation()
    expected = [
        serialize_json(local.apply(parse_json(text))) for text in corpus
    ]

    def race():
        with ServerThread(models, max_wait_ms=2.0, max_batch=16) as handle:
            with ServerClient(handle.host, handle.port) as client:
                got = [
                    client.transform("rename-json@1", text)
                    for text in corpus
                ]
                assert got == expected, "served JSON diverged from local"
                best = float("inf")
                for _ in range(ROUNDS):
                    start = time.perf_counter()
                    for text in corpus:
                        client.transform("rename-json@1", text)
                    best = min(best, time.perf_counter() - start)
        return best

    best_s = benchmark.pedantic(race, rounds=1, iterations=1)
    requests_per_s = len(corpus) / best_s
    _RESULTS["serving"] = {
        "documents": len(corpus),
        "rounds": ROUNDS,
        "best_s": best_s,
        "requests_per_s": requests_per_s,
    }
    _flush_results()
    report(
        "E20/serving",
        "served JSON is byte-identical to the local pipeline",
        f"{len(corpus)} requests: {best_s * 1e3:.1f} ms "
        f"— {requests_per_s:,.0f} req/s",
    )
