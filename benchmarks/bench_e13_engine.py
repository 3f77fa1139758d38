"""E13 — compiled batch engine vs. the recursive interpreter.

Not a paper experiment: this benchmark guards the engine layer
(`repro.engine`).  Three claims:

(a) **batch**: translating a 1000-tree overlapping forest through one
    `run_batch` sweep (cold caches) is ≥ 3× faster than per-tree
    interpreted `DTOP.apply` with cold caches — in practice orders of
    magnitude, because the sweep pays per *distinct* subtree while the
    interpreter pays per node per tree;
(b) **deep**: a depth-100 000 monadic tree translates through the
    engine without recursion errors (the interpreter overflows ~900);
(c) **agreement**: engine and interpreter outputs coincide.

Measurements are also written as JSON (``bench_e13_engine.json``, or the
path in ``$E13_JSON``) so CI can archive them as an artifact.
"""

import json
import os
import time

from repro.engine import Engine, compile_dtop
from repro.trees.alphabet import RankedAlphabet
from repro.trees.generate import monadic_tree
from repro.trees.tree import Tree, leaf, tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import rhs_tree
from repro.workloads.families import cycle_relabel

from benchmarks.conftest import report

ALPHABET = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})

_RESULTS_PATH = os.environ.get("E13_JSON", "bench_e13_engine.json")
_RESULTS = {}


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


def _comb(height: int) -> Tree:
    node = leaf("b")
    for _ in range(height - 1):
        node = tree("f", node, leaf("a"))
    return node


def _overlapping_forest(count: int = 1000):
    """``count`` distinct trees pairing bounded-height combs under a root.

    Heights stay ≤ ~220 so the recursive interpreter baseline can run
    them at the default recursion limit; overlap is heavy (every comb is
    a prefix of the taller ones), which is exactly the shape of a batch
    of near-duplicate documents.
    """
    combs = [_comb(height) for height in range(20, 212)]
    return [
        tree("f", combs[index % len(combs)], combs[(index * 7 + 3) % len(combs)])
        for index in range(count)
    ]


def _flush_results() -> None:
    with open(_RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def test_e13_batch_beats_per_tree_interpretation(benchmark):
    forest = _overlapping_forest(1000)

    # Per-tree interpreted baseline, cold caches: the interpreter keeps
    # nothing between calls, so each input is translated independently
    # — the pre-engine cost model of one-request-at-a-time serving.
    interpreted = _flip()
    start = time.perf_counter()
    interpreted_outputs = []
    for source in forest:
        interpreted_outputs.append(interpreted.apply(source))
    interpreted_elapsed = time.perf_counter() - start

    def compiled_cold():
        engine = Engine(compile_dtop(_flip()))  # cold compile + cold memo
        return engine.run_batch(forest)

    compiled_outputs = benchmark.pedantic(compiled_cold, rounds=1, iterations=1)
    start = time.perf_counter()
    again = compiled_cold()
    compiled_elapsed = time.perf_counter() - start

    assert interpreted_outputs == compiled_outputs == again
    speedup = interpreted_elapsed / max(compiled_elapsed, 1e-9)
    assert speedup >= 3.0, (
        f"compiled batch only {speedup:.1f}× over per-tree interpretation"
    )
    _RESULTS["batch"] = {
        "forest_size": len(forest),
        "total_nodes": sum(t.size for t in forest),
        "interpreted_s": interpreted_elapsed,
        "compiled_s": compiled_elapsed,
        "speedup": speedup,
    }
    _flush_results()
    report(
        "E13/batch",
        "compiled run_batch ≥ 3× per-tree interpreted apply (cold)",
        f"1000-tree overlapping forest: interpreted "
        f"{interpreted_elapsed * 1e3:.1f} ms, compiled batch "
        f"{compiled_elapsed * 1e3:.1f} ms ({speedup:.0f}×)",
    )


def test_e13_deep_tree_translates_without_recursion(benchmark):
    machine, _domain = cycle_relabel(3)
    depth = 100_000
    source = monadic_tree(["a"] * depth)

    def run_deep():
        engine = Engine(compile_dtop(machine))
        return engine.run(source)

    output = benchmark.pedantic(run_deep, rounds=1, iterations=1)
    start = time.perf_counter()
    run_deep()
    elapsed = time.perf_counter() - start

    assert output.height == depth + 1
    _RESULTS["deep"] = {"depth": depth, "compiled_s": elapsed}
    _flush_results()
    report(
        "E13/deep",
        "depth-100k input translates iteratively (interpreter overflows)",
        f"depth {depth} monadic tree in {elapsed * 1e3:.1f} ms, "
        f"output height {output.height}",
    )


def test_e13_single_tree_overhead(benchmark):
    """Single mid-size tree, cold: compiled dispatch vs dict dispatch."""
    source = _comb(200)

    interpreted = _flip()
    start = time.perf_counter()
    expected = interpreted.apply(source)
    interpreted_elapsed = time.perf_counter() - start

    def compiled_cold():
        return Engine(compile_dtop(_flip())).run(source)

    output = benchmark.pedantic(compiled_cold, rounds=1, iterations=1)
    start = time.perf_counter()
    compiled_cold()
    compiled_elapsed = time.perf_counter() - start

    assert output == expected
    ratio = interpreted_elapsed / max(compiled_elapsed, 1e-9)
    _RESULTS["single"] = {
        "tree_nodes": source.size,
        "interpreted_s": interpreted_elapsed,
        "compiled_s": compiled_elapsed,
        "ratio": ratio,
    }
    _flush_results()
    report(
        "E13/single",
        "single-tree compiled evaluation is competitive with interpreted",
        f"{source.size}-node comb: interpreted {interpreted_elapsed * 1e3:.2f} ms, "
        f"compiled (incl. compile) {compiled_elapsed * 1e3:.2f} ms "
        f"({ratio:.1f}×)",
    )
