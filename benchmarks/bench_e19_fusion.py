"""E19 — pipeline fusion.

Not a paper experiment: this benchmark prices fusion on a
serving-shaped workload.  A 4-stage relabel/reorder pipeline is served
staged (one engine per stage, K full passes materializing K-1
intermediate forests) vs. served fused (``compose_chain`` into one
DTOP, one pass).  The fused machine must be ≥ 1.5× faster per forest
(``$BENCH_FUSION_MIN_SPEEDUP`` overrides the floor), with
byte-identical outputs.

Results land in ``BENCH_fusion.json`` (or ``$BENCH_FUSION_JSON``) for
the bench-smoke artifact.
"""

import json
import os
import time

from repro.engine import compile_dtop, get_backend
from repro.transducers.compose import compose_chain
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import call
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree, leaf, tree

from benchmarks.conftest import report

_RESULTS_PATH = os.environ.get("BENCH_FUSION_JSON", "BENCH_fusion.json")
_RESULTS = {}

#: Measurement rounds per protocol (min is reported).
ROUNDS = 3
#: Pipeline depth of the fusion race.
STAGES = 4

ALPHABET = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})


def _flush_results() -> None:
    with open(_RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def _swap() -> DTOP:
    """Total single-state child swapper (nondeleting, nonduplicating)."""
    rules = {
        ("q", "f"): Tree("f", (call("q", 2), call("q", 1))),
        ("q", "g"): Tree("g", (call("q", 1),)),
        ("q", "a"): Tree("a", ()),
        ("q", "b"): Tree("b", ()),
    }
    return DTOP(ALPHABET, ALPHABET, call("q", 0), rules)


def _relabel() -> DTOP:
    """Total single-state leaf relabeler (a ↔ b)."""
    rules = {
        ("q", "f"): Tree("f", (call("q", 1), call("q", 2))),
        ("q", "g"): Tree("g", (call("q", 1),)),
        ("q", "a"): Tree("b", ()),
        ("q", "b"): Tree("a", ()),
    }
    return DTOP(ALPHABET, ALPHABET, call("q", 0), rules)


def _pipeline_stages():
    return [_swap(), _relabel(), _swap(), _relabel()][:STAGES]


def _comb(height: int) -> Tree:
    node = leaf("b")
    for _ in range(height - 1):
        node = tree("f", node, leaf("a"))
    return node


def _forest(count: int = 600):
    combs = [_comb(height) for height in range(20, 212)]
    return [
        tree("f", combs[index % len(combs)], combs[(index * 7 + 3) % len(combs)])
        for index in range(count)
    ]


def _outcome_key(outcome):
    if isinstance(outcome, Exception):
        return (type(outcome).__name__, str(outcome))
    return ("tree", outcome)


def test_e19_fused_pipeline_beats_staged(benchmark):
    stages = _pipeline_stages()
    fused = compose_chain(stages)
    forest = _forest()

    def race():
        staged_engines = [
            get_backend("tables")(compile_dtop(stage)) for stage in stages
        ]
        fused_engine = get_backend("tables")(compile_dtop(fused))

        def staged_pass():
            current = forest
            for engine in staged_engines:
                current = engine.run_batch_outcomes(current)
            return current

        reference = [_outcome_key(o) for o in staged_pass()]
        got = [_outcome_key(o) for o in fused_engine.run_batch_outcomes(forest)]
        assert got == reference, "fused pipeline diverged from staged"

        staged_best = fused_best = float("inf")
        for _ in range(ROUNDS):
            for engine in staged_engines:
                engine.clear_cache()
            fused_engine.clear_cache()

            start = time.perf_counter()
            staged_pass()
            staged_best = min(staged_best, time.perf_counter() - start)

            start = time.perf_counter()
            fused_engine.run_batch_outcomes(forest)
            fused_best = min(fused_best, time.perf_counter() - start)
        return staged_best, fused_best

    staged_s, fused_s = benchmark.pedantic(race, rounds=1, iterations=1)
    speedup = staged_s / max(fused_s, 1e-9)
    total_nodes = sum(t.size for t in forest)
    _RESULTS["fusion"] = {
        "stages": len(stages),
        "fused_states": len(fused.states),
        "forest_size": len(forest),
        "total_nodes": total_nodes,
        "rounds": ROUNDS,
        "staged_s": staged_s,
        "fused_s": fused_s,
        "fused_speedup": speedup,
    }
    _flush_results()
    report(
        "E19/fusion",
        f"fused {len(stages)}-stage pipeline ≥ 1.5× over staged execution",
        f"{len(forest)}-tree forest: staged {staged_s * 1e3:.1f} ms, "
        f"fused {fused_s * 1e3:.1f} ms — {speedup:.2f}×",
    )
    minimum = float(os.environ.get("BENCH_FUSION_MIN_SPEEDUP", "1.5"))
    assert speedup >= minimum, (
        f"fused pipeline only {speedup:.2f}× over staged (floor {minimum}×)"
    )
