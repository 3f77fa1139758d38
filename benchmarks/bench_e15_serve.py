"""E15 — sharded parallel serving vs. the single-process batch engine.

Not a paper experiment: this benchmark guards the serve layer
(`repro.serve`).  Three claims:

(a) **parallel**: a 4-worker :class:`TransformService` sweep over a
    1000-tree overlapping forest — a shared audit corpus checked under
    many entry states, the state-heavy validator profile that dominates
    serving cost — is ≥ 2× faster end-to-end (chunking, table shipping,
    pool start, result decoding included) than the single-process cold
    batch engine, with byte-identical outputs.  The ratio is asserted
    only when the host actually has ≥ 4 CPUs (CI does; a 1-core laptop
    cannot exhibit parallel speedup) and is always recorded in the JSON.
(b) **stream**: ingesting an xmlflip corpus through the streaming
    parser and transforming it chunk-wise yields exactly the outcomes
    of materialized parsing + batch application.
(c) **deep**: a depth-100 000 document flows through the streaming
    ingestion path (the recursive reader overflows around 900).

Measurements land in ``BENCH_serve.json`` (or ``$BENCH_SERVE_JSON``)
so CI can archive them next to the other bench-smoke artifacts.
"""

import json
import os
import random
import time

from repro.codec import Transformation
from repro.engine import Engine, compile_dtop
from repro.serve import TransformService, iter_stream_documents
from repro.serve.shard import forest_costs
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import call
from repro.workloads.xmlflip import (
    xmlflip_document,
    xmlflip_input_dtd,
    xmlflip_output_dtd,
    xmlflip_transducer,
)
from repro.xml.encode import DTDEncoder
from repro.xml.pipeline import xml_codec
from repro.xml.schema import schema_dtta
from repro.xml.xmlio import serialize_xml

from benchmarks.conftest import report

_RESULTS_PATH = os.environ.get("BENCH_SERVE_JSON", "BENCH_serve.json")
_RESULTS = {}

JOBS = 4
#: Entry-state window of the validator machine.
STATES = 24

ALPHABET = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})


def _flush_results() -> None:
    with open(_RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def _validator() -> DTOP:
    """A 24-state identity validator whose state window shifts per step.

    Every state relabels nothing (the output equals the input — so
    result decoding dedupes perfectly), but moving through a node in
    different entry states demands distinct ``(state, node)`` pairs:
    the engine-side work scales with the *audit width*, the shape of
    heavy validation traffic.
    """
    rules = {}
    for i in range(STATES):
        rules[(f"q{i}", "f")] = Tree(
            "f", (call(f"q{(i + 1) % STATES}", 1), call(f"q{(i + 3) % STATES}", 2))
        )
        rules[(f"q{i}", "g")] = Tree("g", (call(f"q{(i + 5) % STATES}", 1),))
        rules[(f"q{i}", "a")] = Tree("a", ())
        rules[(f"q{i}", "b")] = Tree("b", ())
    return DTOP(ALPHABET, ALPHABET, call("q0", 0), rules)


def _comb(length: int, rng: random.Random) -> Tree:
    node = Tree(rng.choice("ab"), ())
    for _ in range(length):
        node = Tree("f", (Tree(rng.choice("ab"), ()), node))
    return node


def _overlapping_forest(groups: int = 50, variants: int = 20):
    """1000 documents in ``groups`` overlap groups.

    Each group shares one 600-node random comb; its ``variants``
    members wrap it in 0…19 ``g`` nodes, so the shared structure is
    audited from 20 different entry states.  Overlap is group-local —
    exactly what the DAG-aware contiguous chunker keeps inside one
    shard — while distinct groups share nothing.
    """
    rng = random.Random(20260728)
    forest = []
    for _ in range(groups):
        base = _comb(600, rng)
        for depth in range(variants):
            document = base
            for _ in range(depth):
                document = Tree("g", (document,))
            forest.append(document)
    return forest


def test_e15_parallel_service_beats_single_process(benchmark):
    forest = _overlapping_forest()
    assert len(forest) == 1000

    start = time.perf_counter()
    engine = Engine(compile_dtop(_validator()))  # cold compile + cold memo
    serial_outputs = engine.run_batch(forest)
    serial_elapsed = time.perf_counter() - start
    pairs = engine.cache_stats["entries"]

    def parallel_cold():
        with TransformService(
            _validator(), jobs=JOBS, chunk_size=64
        ) as service:
            return list(service.map(forest)), service.stats

    (parallel_outputs, stats) = benchmark.pedantic(
        parallel_cold, rounds=1, iterations=1
    )
    start = time.perf_counter()
    again, _stats = parallel_cold()
    parallel_elapsed = time.perf_counter() - start

    assert parallel_outputs == serial_outputs == again
    speedup = serial_elapsed / max(parallel_elapsed, 1e-9)
    cpus = os.cpu_count() or 1
    _RESULTS["parallel"] = {
        "forest_size": len(forest),
        "total_nodes": sum(t.size for t in forest),
        "distinct_nodes": sum(forest_costs(forest)),
        "demanded_pairs": pairs,
        "jobs": JOBS,
        "cpus": cpus,
        "chunks": stats["chunks"],
        "serial_s": serial_elapsed,
        "parallel_s": parallel_elapsed,
        "speedup": speedup,
        "speedup_asserted": cpus >= JOBS,
    }
    _flush_results()
    report(
        "E15/parallel",
        f"{JOBS}-worker service ≥ 2× single-process batch on the "
        f"1000-tree overlapping forest",
        f"serial {serial_elapsed:.2f} s, {JOBS}-worker "
        f"{parallel_elapsed:.2f} s ({speedup:.2f}×, {cpus} CPUs, "
        f"{stats['chunks']} chunks)",
    )
    if cpus >= JOBS:
        minimum = float(os.environ.get("BENCH_SERVE_MIN_SPEEDUP", "2.0"))
        assert speedup >= minimum, (
            f"parallel service only {speedup:.2f}× over the single-process "
            f"batch engine at {JOBS} workers on {cpus} CPUs"
        )


def test_e15_stream_ingestion_matches_materialized(benchmark):
    input_encoder = DTDEncoder(xmlflip_input_dtd())
    transformation = Transformation(
        xmlflip_transducer(),
        xml_codec(input_encoder, DTDEncoder(xmlflip_output_dtd())),
        schema_dtta(input_encoder),
    )
    documents = [xmlflip_document(n % 7, (3 * n + 1) % 8) for n in range(2000)]
    stream_text = (
        "<batch>"
        + "".join(serialize_xml(d, indent=None) for d in documents)
        + "</batch>"
    )
    reference = transformation.apply_batch(documents)

    def streamed():
        return list(
            transformation.apply_stream(
                iter_stream_documents(stream_text), chunk_docs=128
            )
        )

    outputs = benchmark.pedantic(streamed, rounds=1, iterations=1)
    start = time.perf_counter()
    again = streamed()
    elapsed = time.perf_counter() - start

    assert outputs == reference == again
    rate = len(documents) / max(elapsed, 1e-9)
    _RESULTS["stream"] = {
        "documents": len(documents),
        "stream_bytes": len(stream_text),
        "stream_s": elapsed,
        "docs_per_s": rate,
    }
    _flush_results()
    report(
        "E15/stream",
        "streaming ingestion ≡ materialized parsing on the xmlflip corpus",
        f"{len(documents)} documents ({len(stream_text)} bytes) in "
        f"{elapsed * 1e3:.0f} ms ({rate:.0f} docs/s), outcomes identical",
    )


def test_e15_deep_document_streams(benchmark):
    depth = 100_000
    pieces = ["<batch>", "<d>" * depth, "</d>" * depth, "</batch>"]

    def ingest():
        (document,) = list(iter_stream_documents(pieces))
        return document

    document = benchmark.pedantic(ingest, rounds=1, iterations=1)
    start = time.perf_counter()
    ingest()
    elapsed = time.perf_counter() - start

    deepest = 0
    stack = [(document, 1)]
    while stack:
        node, level = stack.pop()
        deepest = max(deepest, level)
        for child in node.children:
            stack.append((child, level + 1))
    assert deepest == depth
    _RESULTS["deep_stream"] = {"depth": depth, "stream_s": elapsed}
    _flush_results()
    report(
        "E15/deep",
        "depth-100k document ingests through the stream path "
        "(recursive reader overflows)",
        f"depth {depth} in {elapsed * 1e3:.0f} ms",
    )
