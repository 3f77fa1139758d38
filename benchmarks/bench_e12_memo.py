"""E12 — hash-consing and persistent memoization on the evaluation hot path.

Not a paper experiment: this benchmark guards the engineering claims of
the interned tree core and the engine's run memo.  (a) Structurally
shared inputs are translated once — cache misses grow with the number of
*distinct* subtrees, not with tree size; (b) re-running an engine over
overlapping inputs is served by its persistent ``(state, uid)`` memo
and is measurably faster than a cold engine; (c) memoized and cold
evaluation agree; (d) the
per-node cost of interning: a miss (new node), a hit (rebuilt node) and
a dict insert keyed by a tree (identity hash); (e) the slot-map memo of
value provenance: a repeated value-bearing document fills no slot map,
and 100,000 distinct ones leave the resident set flat.
"""

import gc
import resource
import statistics
import time
from pathlib import Path

from repro.codec import load_transformation
from repro.engine import Engine, compile_dtop, engine_for, execute
from repro.workloads.library import library_document
from repro.trees.tree import Tree, intern_stats, leaf, reset_intern_stats, tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import rhs_tree
from repro.trees.alphabet import RankedAlphabet

from benchmarks.conftest import report

ALPHABET = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})


def _flip() -> DTOP:
    return DTOP(
        ALPHABET,
        ALPHABET,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("f", ("q", 2), ("q", 1))),
            ("q", "g"): rhs_tree(("g", ("q", 1))),
            ("q", "a"): rhs_tree("a"),
            ("q", "b"): rhs_tree("b"),
        },
    )


def _full_binary(height: int) -> Tree:
    level = leaf("a")
    for _ in range(height - 1):
        level = tree("f", level, level)
    return level


def _comb(height: int) -> Tree:
    node = leaf("b")
    for _ in range(height - 1):
        node = tree("f", node, leaf("a"))
    return node


def test_e12_shared_subtrees_translated_once(benchmark):
    def run():
        engine = Engine(compile_dtop(_flip()))
        output = engine.run(_full_binary(18))
        return engine.cache_stats, output.size

    stats, out_size = benchmark.pedantic(run, rounds=1, iterations=1)
    # 2^18 - 1 logical nodes, but only 18 distinct (state, subtree) pairs.
    assert stats["misses"] == 18
    report(
        "E12/sharing",
        "hash-consing: cache misses scale with distinct subtrees",
        f"|s| = {out_size} nodes translated with {stats['misses']} rule "
        f"instantiations ({stats['hits']} cache hits)",
    )


def test_e12_memoized_vs_cold(benchmark):
    inputs = [_comb(h) for h in range(40, 220, 3)]

    engine = Engine(compile_dtop(_flip()))

    def cold():
        results = []
        for s in inputs:
            engine.clear_cache()  # fresh memo every time
            results.append(engine.run(s))
        return results

    def warm():
        engine.clear_cache()
        return [engine.run(s) for s in inputs]

    start = time.perf_counter()
    cold_results = cold()
    cold_elapsed = time.perf_counter() - start

    warm_results = benchmark.pedantic(warm, rounds=1, iterations=1)
    start = time.perf_counter()
    warm_again = warm()
    warm_elapsed = time.perf_counter() - start

    assert cold_results == warm_results == warm_again
    speedup = cold_elapsed / max(warm_elapsed, 1e-9)
    assert speedup > 1.0, "persistent memo slower than a cold engine"
    report(
        "E12/memo",
        "persistent (state, uid) memo beats cold evaluation on overlap",
        f"{len(inputs)} overlapping combs: cold {cold_elapsed * 1e3:.1f} ms, "
        f"memoized {warm_elapsed * 1e3:.1f} ms ({speedup:.1f}×)",
    )


INTERN_NODES = 20_000
PAD = leaf("e12-pad")


def _distinct_nodes(tag: str) -> Tree:
    """``INTERN_NODES`` constructions of distinct nodes: a leaf, then a
    spine of binary nodes over it (the second child is ``PAD``)."""
    node = leaf(tag)
    for _ in range(INTERN_NODES - 1):
        node = Tree("f", (node, PAD))
    return node


def _spine(node: Tree):
    out = [node]
    while node.children:
        node = node.children[0]
        out.append(node)
    return out


def test_e12_intern_per_node_cost(benchmark):
    misses, hits, inserts = [], [], []

    def once(round_index: int):
        gc.collect()
        tag = f"e12-intern-{round_index}"  # fresh nodes every round
        start = time.perf_counter()
        built = _distinct_nodes(tag)
        misses.append((time.perf_counter() - start) / INTERN_NODES)
        reset_intern_stats()
        start = time.perf_counter()
        rebuilt = _distinct_nodes(tag)
        hits.append((time.perf_counter() - start) / INTERN_NODES)
        stats = intern_stats()
        spine = _spine(built)
        start = time.perf_counter()
        table = {}
        for node in spine:
            table[node] = node.uid
        inserts.append((time.perf_counter() - start) / len(spine))
        return built, rebuilt, stats, table

    built, rebuilt, stats, table = benchmark.pedantic(
        once, args=(0,), rounds=1, iterations=1
    )
    # The guard is structural, not a timing: a rebuild of the same
    # 20,000 nodes returns the same objects and allocates nothing.
    assert rebuilt is built
    assert stats["misses"] == 0 and stats["hits"] == INTERN_NODES
    assert len(_spine(built)) == INTERN_NODES
    assert all(table[node] == node.uid for node in _spine(rebuilt))
    del built, rebuilt, table
    for round_index in range(1, 5):
        once(round_index)
    median = statistics.median
    report(
        "E12/intern",
        "hash-consing: a miss allocates once, a hit and a tree-keyed dict "
        "insert cost a lookup",
        f"miss {median(misses) * 1e6:.2f} µs/node, hit "
        f"{median(hits) * 1e6:.2f} µs/node, dict insert "
        f"{median(inserts) * 1e6:.3f} µs/tree (medians of 5 rounds, "
        f"{INTERN_NODES} nodes)",
    )


MODELS_DIR = Path(__file__).resolve().parents[1] / "models"

#: The provenance soak: distinct value-bearing JSON documents, after a
#: warm-up that fills the memos to their bound once.
SOAK_DOCUMENTS = 100_000
SOAK_WARMUP = 5_000
SOAK_BATCH = 64
#: Resident-set growth allowed over the soak.  The memos hold at most
#: ``MEMO_LIMIT`` entries (a few MB); without the bound the slot maps
#: of 100,000 documents would retain hundreds of MB.
SOAK_RSS_BOUND_MB = 32


def _distinct_json(index: int):
    """A value-bearing document whose encoding differs for every
    ``index``: its items spell ``index`` in binary."""
    return {
        "user": f"u{index}",
        "tags": [
            f"t{bit}" if (index >> bit) & 1 else bit
            for bit in range(index.bit_length())
        ],
    }


def _resident_mb() -> float:
    """Current resident set size (peak where ``/proc`` is missing)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
        return pages * resource.getpagesize() / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def test_e12_repeated_document_fills_no_slot_map(benchmark):
    documents = {
        "library@1": library_document(4),
        "rename-json@1": _distinct_json(2**12 - 7),
    }

    def run():
        fills = {}
        for model, document in documents.items():
            transformation = load_transformation(MODELS_DIR / f"{model}.json")
            engine = engine_for(transformation.transducer)
            first = transformation.apply(document)
            filled = engine.slot_stats["fills"]
            assert transformation.apply(document) == first
            fills[model] = (filled, engine.slot_stats["fills"] - filled)
        return fills

    fills = benchmark.pedantic(run, rounds=1, iterations=1)
    for model, (first, second) in fills.items():
        assert first > 0, model
        assert second == 0, model
    report(
        "E12/provenance",
        "slot maps are memoized per (state, subtree): a repeated "
        "value-bearing document fills none",
        ", ".join(
            f"{model}: {first} pairs filled, then {second}"
            for model, (first, second) in fills.items()
        ),
    )


def test_e12_distinct_documents_keep_the_heap_flat(benchmark):
    transformation = load_transformation(MODELS_DIR / "rename-json@1.json")
    engine = engine_for(transformation.transducer)

    def feed(start: int, stop: int) -> None:
        for first in range(start, stop, SOAK_BATCH):
            batch = [
                _distinct_json(index)
                for index in range(first, min(first + SOAK_BATCH, stop))
            ]
            for outcome in transformation.apply_batch(batch):
                assert not isinstance(outcome, Exception), outcome

    feed(1, 1 + SOAK_WARMUP)
    gc.collect()
    before = _resident_mb()
    start = time.perf_counter()
    benchmark.pedantic(
        feed,
        args=(1 + SOAK_WARMUP, 1 + SOAK_WARMUP + SOAK_DOCUMENTS),
        rounds=1,
        iterations=1,
    )
    elapsed = time.perf_counter() - start
    gc.collect()
    growth = _resident_mb() - before
    evictions = engine.cache_stats["evictions"]
    stats = engine.slot_stats
    assert evictions > 0
    assert stats["entries"] <= execute.MEMO_LIMIT
    assert growth < SOAK_RSS_BOUND_MB, f"resident set grew {growth:.1f} MB"
    report(
        "E12/provenance-soak",
        "the slot-map memo is bounded with the run memo: distinct "
        "value-bearing documents keep the heap flat",
        f"{SOAK_DOCUMENTS} distinct rename-json@1 documents in "
        f"{elapsed:.1f} s: resident set {growth:+.1f} MB (bound "
        f"{SOAK_RSS_BOUND_MB} MB), {stats['fills']} slot-map pairs "
        f"filled, {evictions} memo clears",
    )
