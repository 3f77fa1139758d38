"""E18 — the codegen execution backend vs. the tables engine.

Not a paper experiment: this benchmark races the two execution
backends (`repro.engine.backends`) on the serving-shaped workloads the
engine layer is judged by.  Three claims:

(a) **forest**: on the E13 1000-tree overlapping forest, ``codegen``
    beats the ``tables`` engine by ≥ 5× per node under the cold-start
    serving protocol — caches dropped, then the forest served twenty
    times, the one-pool-restart-then-steady-traffic shape.  Single cold and warm-batch ratios are recorded alongside
    (never asserted): per-pair cost is floored by hash-consed output
    construction, so the cold sweep alone understates the win.
(b) **validator**: per-node throughput on the E15 24-state audit
    profile (state-heavy serving traffic) is recorded per backend.
(c) **parity**: codegen produces byte-identical outcomes to the
    tables engine on both workloads, and a worker pool honoring the
    payload's backend returns the same outcomes too.

Measurements are interleaved round-robin across backends (min of
rounds): the tables engine's memo holds the interned output trees
alive, so later contestants are not charged the intern-miss cost an
isolated cold run would pay.  Results land in ``BENCH_backend.json``
(or ``$BENCH_BACKEND_JSON``) for the bench-smoke artifact.
"""

import json
import os
import random
import time

from repro.engine import available_backends, compile_dtop, get_backend
from repro.serve import TransformService
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree, leaf, tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import call, rhs_tree

from benchmarks.conftest import report

_RESULTS_PATH = os.environ.get("BENCH_BACKEND_JSON", "BENCH_backend.json")
_RESULTS = {}

#: Measurement rounds per backend (min is reported).
ROUNDS = 3
#: Batches per cold-start serving measurement (1 cold + 19 warm): one
#: pool restart per twenty forest batches of steady traffic.
SERVE_PASSES = 20
#: Entry-state window of the E15-profile validator.
STATES = 24

ALPHABET = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})


def _flush_results() -> None:
    with open(_RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


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


def _e13_forest(count: int = 1000):
    """The E13 workload: bounded-height combs paired under fresh roots."""
    combs = [_comb(height) for height in range(20, 212)]
    return [
        tree("f", combs[index % len(combs)], combs[(index * 7 + 3) % len(combs)])
        for index in range(count)
    ]


def _validator() -> DTOP:
    """The E15 audit profile: a 24-state identity validator."""
    rules = {}
    for i in range(STATES):
        rules[(f"q{i}", "f")] = Tree(
            "f", (call(f"q{(i + 1) % STATES}", 1), call(f"q{(i + 3) % STATES}", 2))
        )
        rules[(f"q{i}", "g")] = Tree("g", (call(f"q{(i + 5) % STATES}", 1),))
        rules[(f"q{i}", "a")] = Tree("a", ())
        rules[(f"q{i}", "b")] = Tree("b", ())
    return DTOP(ALPHABET, ALPHABET, call("q0", 0), rules)


def _validator_forest(groups: int = 20, variants: int = 20):
    rng = random.Random(20260807)
    forest = []
    for _ in range(groups):
        base = _comb(400)
        for _ in range(variants):
            document = base
            for _ in range(rng.randrange(0, variants)):
                document = Tree("g", (document,))
            forest.append(document)
        base = Tree("g", (Tree(rng.choice("ab"), ()),))
    return forest


def _outcome_key(outcome):
    if isinstance(outcome, Exception):
        return (type(outcome).__name__, str(outcome))
    return ("tree", outcome)


def _measure_backend(engine, forest):
    """One round of the three protocols on ``engine``; seconds each."""
    engine.clear_cache()
    start = time.perf_counter()
    cold_outcomes = engine.run_batch_outcomes(forest)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    engine.run_batch_outcomes(forest)
    warm = time.perf_counter() - start

    engine.clear_cache()
    start = time.perf_counter()
    for _ in range(SERVE_PASSES):
        engine.run_batch_outcomes(forest)
    serve = time.perf_counter() - start
    return cold, warm, serve, cold_outcomes


def _race(machine, forest):
    """Race every backend on ``forest``; min-of-rounds per protocol."""
    compiled = compile_dtop(machine)
    engines = {name: get_backend(name)(compiled) for name in available_backends()}
    # Anchor: keep every output tree interned for the whole race so no
    # contestant pays intern misses another's cache drop caused.
    anchor = get_backend("tables")(compiled)
    reference = [_outcome_key(o) for o in anchor.run_batch_outcomes(forest)]

    best = {name: [float("inf")] * 3 for name in engines}
    for _ in range(ROUNDS):
        for name, engine in engines.items():
            cold, warm, serve, outcomes = _measure_backend(engine, forest)
            best[name] = [
                min(best[name][0], cold),
                min(best[name][1], warm),
                min(best[name][2], serve),
            ]
            assert [_outcome_key(o) for o in outcomes] == reference, (
                f"backend {name!r} diverged from tables"
            )

    total_nodes = sum(t.size for t in forest)
    rows = {}
    for name, (cold, warm, serve) in best.items():
        rows[name] = {
            "cold_s": cold,
            "warm_s": warm,
            "serving_s": serve,
            "cold_nodes_per_s": total_nodes / max(cold, 1e-9),
            "serving_nodes_per_s": SERVE_PASSES * total_nodes / max(serve, 1e-9),
        }
    for name, row in rows.items():
        row["cold_speedup"] = rows["tables"]["cold_s"] / max(row["cold_s"], 1e-9)
        row["warm_speedup"] = rows["tables"]["warm_s"] / max(row["warm_s"], 1e-9)
        row["serving_speedup"] = rows["tables"]["serving_s"] / max(
            row["serving_s"], 1e-9
        )
    return total_nodes, rows


def test_e18_forest_codegen_beats_tables(benchmark):
    forest = _e13_forest(1000)
    machine = _flip()

    total_nodes, rows = benchmark.pedantic(
        lambda: _race(machine, forest), rounds=1, iterations=1
    )
    codegen = rows["codegen"]
    _RESULTS["e13_forest"] = {
        "forest_size": len(forest),
        "total_nodes": total_nodes,
        "rounds": ROUNDS,
        "serve_passes": SERVE_PASSES,
        "backends": rows,
        "codegen_serving_speedup": codegen["serving_speedup"],
    }
    _flush_results()
    report(
        "E18/forest",
        "codegen ≥ 5× per node over tables (cold-start serving ×20)",
        f"1000-tree E13 forest vs tables: codegen "
        f"{codegen['serving_speedup']:.2f}× serving "
        f"({codegen['cold_speedup']:.2f}× cold, "
        f"{codegen['warm_speedup']:.2f}× warm)",
    )
    minimum = float(os.environ.get("BENCH_BACKEND_MIN_SPEEDUP", "5.0"))
    assert codegen["serving_speedup"] >= minimum, (
        f"codegen only {codegen['serving_speedup']:.2f}× over tables on the "
        f"cold-start serving protocol (floor {minimum}×)"
    )


def test_e18_validator_throughput_recorded(benchmark):
    forest = _validator_forest()
    machine = _validator()

    total_nodes, rows = benchmark.pedantic(
        lambda: _race(machine, forest), rounds=1, iterations=1
    )
    _RESULTS["e15_validator"] = {
        "forest_size": len(forest),
        "total_nodes": total_nodes,
        "states": STATES,
        "backends": rows,
    }
    _flush_results()
    report(
        "E18/validator",
        "per-node backend throughput on the 24-state audit profile",
        f"{len(forest)}-doc validator forest vs tables: codegen "
        f"{rows['codegen']['serving_speedup']:.2f}× "
        f"(ratio recorded, not asserted)",
    )


def test_e18_worker_pools_honor_payload_backend(benchmark):
    """E16-shape parity: sharded pools serve each backend's tables."""
    forest = _e13_forest(200)
    machine = _flip()
    reference = [
        _outcome_key(o)
        for o in get_backend("tables")(compile_dtop(machine)).run_batch_outcomes(
            forest
        )
    ]

    def pools():
        timings = {}
        for name in available_backends():
            start = time.perf_counter()
            with TransformService(
                machine, jobs=2, chunk_size=32, backend=name
            ) as service:
                outcomes = [_outcome_key(o) for o in service.map(forest)]
            timings[name] = time.perf_counter() - start
            assert outcomes == reference, (
                f"pool serving backend {name!r} diverged from tables"
            )
        return timings

    timings = benchmark.pedantic(pools, rounds=1, iterations=1)
    _RESULTS["e16_pools"] = {
        "forest_size": len(forest),
        "jobs": 2,
        "pool_s": timings,
    }
    _flush_results()
    report(
        "E18/pools",
        "worker pools honor the payload's backend, outcomes identical",
        ", ".join(
            f"{name} {elapsed * 1e3:.0f} ms"
            for name, elapsed in sorted(timings.items())
        ),
    )
