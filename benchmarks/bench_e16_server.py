"""E16 — network serving: micro-batched vs per-request dispatch.

Not a paper experiment: this benchmark guards the server subsystem
(`repro.server`).  Two claims:

(a) **micro-batching**: 16 concurrent clients hammering one audit model
    are served ≥ 2× faster end-to-end when the server coalesces their
    requests into micro-batches dispatched to a 4-worker sharded
    service (``max_batch=16, jobs=4``) than when every request is
    dispatched serially on its own (``max_batch=1, jobs=1``) — with
    byte-identical responses.  The workload is the state-heavy
    validator profile that dominates serving cost: each document is
    audited from 24 entry states, so engine work is ~24× the document
    size while parse and (packed) render stay linear in it — the shape
    micro-batching exists for.  The ratio is asserted only on hosts
    with ≥ 4 CPUs (CI has 4; a 1-core box cannot exhibit parallel
    speedup) and is **always** recorded in the JSON.

(b) **parity**: both serving modes return identical packed payloads,
    which decode to exactly the trees the local ``api.run`` produces.

Measurements land in ``BENCH_server.json`` (or ``$BENCH_SERVER_JSON``)
so CI can archive them next to the other bench-smoke artifacts.
"""

import json
import os
import random
import threading
import time

from repro import api
from repro.serve.shard import decode_forest
from repro.server import ServerClient, ServerThread
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import call

from benchmarks.conftest import report

_RESULTS_PATH = os.environ.get("BENCH_SERVER_JSON", "BENCH_server.json")
_RESULTS = {}

#: Concurrent blocking clients (the acceptance scenario).
CLIENTS = 16
#: Requests per client.
PER_CLIENT = 24
#: Worker processes behind the micro-batched server.
JOBS = 4
#: Entry-state fan of the audit machine: engine pairs per document are
#: ``FAN × nodes`` while parse/render stay ``O(nodes)``.
FAN = 24
#: State window the audit rotates through.
STATES = 48
#: Tower height of each document (kept well under the recursion limit
#: of the term parser; the engine itself is iterative).
DEPTH = 250

ALPHABET = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})


def _flush_results() -> None:
    with open(_RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def _audit_machine() -> DTOP:
    """A 48-state identity validator fanned over 24 entry states.

    Every state copies its input unchanged, but each of the axiom's 24
    calls starts a *different* state chain, so a single document demands
    ``FAN`` distinct ``(state, node)`` pairs per node — the audit-width
    profile of heavy validation traffic.  Outputs are hash-consed: the
    24 identical result chains collapse to one DAG, which is what the
    packed response format ships.
    """
    output = RankedAlphabet(
        {"f": 2, "g": 1, "a": 0, "b": 0, "fan": FAN}
    )
    rules = {}
    for i in range(STATES):
        rules[(f"q{i}", "f")] = Tree(
            "f",
            (call(f"q{(i + 1) % STATES}", 1), call(f"q{(i + 5) % STATES}", 2)),
        )
        rules[(f"q{i}", "g")] = Tree("g", (call(f"q{(i + 5) % STATES}", 1),))
        rules[(f"q{i}", "a")] = Tree("a", ())
        rules[(f"q{i}", "b")] = Tree("b", ())
    axiom = Tree(
        "fan", tuple(call(f"q{(3 * k) % STATES}", 0) for k in range(FAN))
    )
    return DTOP(ALPHABET, output, axiom, rules)


def _tower_text(depth: int, rng: random.Random) -> str:
    """One document as term-syntax text: a mixed f/g tower."""
    opens, closes = [], []
    for _ in range(depth):
        if rng.random() < 0.3:
            opens.append("f(a, ")
        else:
            opens.append("g(")
        closes.append(")")
    return "".join(opens) + rng.choice("ab") + "".join(reversed(closes))


def _corpus():
    rng = random.Random(20260728)
    return [_tower_text(DEPTH, rng) for _ in range(CLIENTS * PER_CLIENT)]


def _drive(host, port, texts):
    """16 blocking clients, each sending its slice; wall time + payloads."""
    results = [None] * len(texts)

    def worker(offset):
        with ServerClient(host, port) as client:
            for index in range(offset, len(texts), CLIENTS):
                results[index] = client.transform_packed(
                    "audit", texts[index], decode=False
                )

    threads = [
        threading.Thread(target=worker, args=(offset,))
        for offset in range(CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, results


def test_e16_micro_batching_beats_per_request_dispatch(
    benchmark, tmp_path
):
    machine = _audit_machine()
    api.save(machine, str(tmp_path / "audit@1.json"))
    texts = _corpus()

    # Per-request serial dispatch: batching disabled, no sharding.
    with ServerThread(tmp_path, max_batch=1) as handle:
        serial_elapsed, serial_payloads = _drive(
            handle.host, handle.port, texts
        )

    # Micro-batched dispatch: coalesce up to 16 concurrent requests,
    # shard each batch across 4 worker processes.
    def batched_run():
        with ServerThread(tmp_path, jobs=JOBS, max_batch=CLIENTS) as handle:
            elapsed, payloads = _drive(handle.host, handle.port, texts)
            stats = ServerClient(handle.host, handle.port).stats()
            return elapsed, payloads, stats

    batched_elapsed, batched_payloads, stats = benchmark.pedantic(
        batched_run, rounds=1, iterations=1
    )

    # (b) parity: identical payloads, decoding to api.run's exact trees.
    assert batched_payloads == serial_payloads
    probe_indexes = range(0, len(texts), 37)
    for index in probe_indexes:
        payload = batched_payloads[index]
        records = tuple(tuple(record) for record in payload["records"])
        decoded = decode_forest((records, (payload["root"],)))[0]
        assert decoded is api.run(machine, texts[index])

    requests = len(texts)
    speedup = serial_elapsed / max(batched_elapsed, 1e-9)
    cpus = os.cpu_count() or 1
    batcher = stats["batcher"]
    _RESULTS["micro_batching"] = {
        "clients": CLIENTS,
        "requests": requests,
        "fan": FAN,
        "depth": DEPTH,
        "jobs": JOBS,
        "cpus": cpus,
        "serial_s": serial_elapsed,
        "batched_s": batched_elapsed,
        "serial_docs_per_s": requests / max(serial_elapsed, 1e-9),
        "batched_docs_per_s": requests / max(batched_elapsed, 1e-9),
        "speedup": speedup,
        "speedup_asserted": cpus >= JOBS,
        "batches": batcher["batches"],
        "max_batch_seen": batcher["max_batch_seen"],
        "coalesced_documents": batcher["coalesced"],
    }
    _flush_results()
    report(
        "E16/micro-batching",
        f"micro-batched dispatch ≥ 2× per-request serial dispatch at "
        f"{CLIENTS} concurrent clients",
        f"per-request {serial_elapsed:.2f} s, micro-batched "
        f"{batched_elapsed:.2f} s ({speedup:.2f}×, {cpus} CPUs, "
        f"{batcher['batches']} batches, largest "
        f"{batcher['max_batch_seen']})",
    )
    # Micro-batching must have actually coalesced concurrent requests.
    assert batcher["max_batch_seen"] > 1
    assert batcher["batches"] < requests
    if cpus >= JOBS:
        minimum = float(os.environ.get("BENCH_SERVER_MIN_SPEEDUP", "2.0"))
        assert speedup >= minimum, (
            f"micro-batched dispatch only {speedup:.2f}× over per-request "
            f"serial dispatch at {CLIENTS} clients on {cpus} CPUs"
        )


def test_e16_stream_serving_round_trip(benchmark, tmp_path, capsys):
    """The XML stream path serves a batch end-to-end over the wire."""
    from repro.workloads.xmlflip import (
        transform_xmlflip,
        xmlflip_document,
        xmlflip_examples,
        xmlflip_input_dtd,
        xmlflip_output_dtd,
    )
    from repro.xml.pipeline import learn_xml_transformation
    from repro.xml.xmlio import serialize_xml

    transformation = learn_xml_transformation(
        xmlflip_input_dtd(),
        xmlflip_output_dtd(),
        xmlflip_examples(),
        compact_lists=True,
    )
    transformation.save(tmp_path / "xmlflip@1.json")
    documents = [xmlflip_document(n % 5, (n + 2) % 5) for n in range(500)]
    stream = (
        "<batch>"
        + "".join(serialize_xml(d, indent=None) for d in documents)
        + "</batch>"
    )
    expected = [serialize_xml(transform_xmlflip(d)) for d in documents]

    def round_trip():
        with ServerThread(tmp_path) as handle:
            with ServerClient(handle.host, handle.port) as client:
                return client.transform_stream("xmlflip", stream)

    outcomes = benchmark.pedantic(round_trip, rounds=1, iterations=1)
    start = time.perf_counter()
    again = round_trip()
    elapsed = time.perf_counter() - start

    assert outcomes == expected == again
    rate = len(documents) / max(elapsed, 1e-9)
    _RESULTS["stream"] = {
        "documents": len(documents),
        "stream_bytes": len(stream),
        "stream_s": elapsed,
        "docs_per_s": rate,
    }
    _flush_results()
    report(
        "E16/stream",
        "transform_stream serves an XML batch byte-identically over TCP",
        f"{len(documents)} documents ({len(stream)} bytes) in "
        f"{elapsed * 1e3:.0f} ms ({rate:.0f} docs/s)",
    )
