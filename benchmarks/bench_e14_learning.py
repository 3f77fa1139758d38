"""E14 — compiled learning pipeline vs. the pre-compilation path.

Not a paper experiment: this benchmark guards the learning-side
compilation layer (`repro.engine.sample_tables` + the rewired
`rpni_dtop`).  Three claims:

(a) **cold sweep**: on the E6 families (monadic state cycles, k-ary list
    rotations), a single cold `rpni_dtop` on the compiled substrate is
    at least competitive with the interpreted pre-compilation path (the
    test reference `tests.learning.reference_sample.rpni_reference`) at
    every sweep size, with identical results;
(b) **incremental re-learning** (the acceptance gate): on the largest
    E6 configurations (cycle n=16, rotate k=6), a growing-sample
    re-learning workload — the shape of every active-learning session —
    is ≥ 3× faster when each round *extends* the sample
    (`Sample.extended_with`, tables reused copy-on-write) than the
    pre-compilation path that rebuilds the sample and re-derives
    everything per round (`Sample(...)` + `rpni_reference`), again with
    identical learned machines every round.  It must also be ≥ 3× faster
    than rebuilding the sample per round for the compiled learner
    (`Sample(...)` + the default `rpni_dtop`), so the gate measures what
    extending saves on the compiled path itself, not only against the
    interpreter;
(c) **active learning end-to-end**: `learn_actively` converges with its
    sample compiled exactly once across all counterexample rounds
    (`tables_builds == 1`), the index-reuse contract.

Measurements are written as JSON (``BENCH_learning.json``, or the path
in ``$BENCH_LEARNING_JSON``) so CI can archive them as an artifact and
track the learning-path perf trajectory.
"""

import json
import os
import random
import time

from repro.automata.ops import enumerate_language
from repro.engine import engine_for
from repro.learning.active import learn_actively
from repro.learning.charset import characteristic_sample
from repro.learning.rpni import rpni_dtop
from repro.learning.sample import Sample
from repro.transducers.minimize import canonicalize
from repro.workloads.families import cycle_relabel, rotate_lists

from benchmarks.conftest import report
from tests.learning.reference_sample import rpni_reference

_RESULTS_PATH = os.environ.get("BENCH_LEARNING_JSON", "BENCH_learning.json")
_RESULTS = {}

#: Re-learning rounds of the incremental workload.  Long enough for the
#: steady state to dominate the one-time compile of the compiled path.
_ROUNDS = 60


def _flush_results() -> None:
    with open(_RESULTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(_RESULTS, handle, indent=2, sort_keys=True)


def _learning_setup(family, parameter, extras_limit=200):
    """Canonical target, characteristic sample, and extra oracle pairs."""
    target, domain = family(parameter)
    canonical = canonicalize(target, domain)
    base_pairs = list(characteristic_sample(canonical))
    members = list(enumerate_language(canonical.domain, limit=extras_limit))
    outputs = engine_for(canonical.dtop).run_batch(members)
    seen = {source for source, _ in base_pairs}
    extras = [
        (source, output)
        for source, output in zip(members, outputs)
        if source not in seen
    ]
    return canonical, base_pairs, extras


def _fingerprint(learned):
    return (learned.dtop.axiom, learned.dtop.rules, learned.trace)


# ---------------------------------------------------------------------------
# (a) cold E6 sweeps, compiled vs. interpreted
# ---------------------------------------------------------------------------


def _cold_sweep(family, parameters):
    rows = []
    for parameter in parameters:
        canonical, base_pairs, _ = _learning_setup(family, parameter, 0)
        start = time.perf_counter()
        interpreted = rpni_reference(Sample(base_pairs), canonical.domain)
        interpreted_s = time.perf_counter() - start
        start = time.perf_counter()
        compiled = rpni_dtop(Sample(base_pairs), canonical.domain)
        compiled_s = time.perf_counter() - start
        assert _fingerprint(compiled) == _fingerprint(interpreted)
        rows.append(
            {
                "parameter": parameter,
                "sample_nodes": Sample(base_pairs).total_nodes,
                "interpreted_s": interpreted_s,
                "compiled_s": compiled_s,
            }
        )
    return rows


def test_e14_cold_sweeps(benchmark):
    def run():
        return {
            "cycle": _cold_sweep(cycle_relabel, [2, 4, 8, 12, 16]),
            "rotate": _cold_sweep(rotate_lists, [2, 3, 4, 5, 6]),
        }

    sweeps = benchmark.pedantic(run, rounds=1, iterations=1)
    _RESULTS["cold_sweeps"] = sweeps
    _flush_results()
    lines = []
    for name, rows in sweeps.items():
        largest = rows[-1]
        lines.append(
            f"{name} p={largest['parameter']}: interpreted "
            f"{largest['interpreted_s'] * 1e3:.1f} ms, compiled "
            f"{largest['compiled_s'] * 1e3:.1f} ms"
        )
        # A single cold run carries the one-time table build; it must
        # stay in the same ballpark as the interpreted path (the payoff
        # is measured in the incremental tests below).
        for row in rows:
            assert row["compiled_s"] <= max(row["interpreted_s"] * 3.0, 0.05)
    report(
        "E14/cold",
        "cold compiled learning competitive with interpreted at all sizes",
        "; ".join(lines),
    )


# ---------------------------------------------------------------------------
# (b) incremental re-learning — the acceptance gate
# ---------------------------------------------------------------------------


def _relearning_speedup(family, parameter):
    """Grow the sample one oracle pair per round and re-learn each time.

    Pre-PR path: rebuild the ``Sample`` and run the interpreted learner
    every round (exactly what the active learner did before this layer
    existed).  Compiled rebuild: rebuild the ``Sample`` every round and
    run the compiled learner on its fresh tables.  Compiled path: extend
    the sample in place and re-learn on the warm tables.  All three must
    produce the identical machine each round.
    """
    canonical, base_pairs, extras = _learning_setup(family, parameter)
    rounds = min(_ROUNDS, len(extras))
    assert rounds >= 20, "not enough distinct domain members for the workload"

    def legacy():
        pairs = list(base_pairs)
        outcome = []
        start = time.perf_counter()
        for index in range(rounds):
            pairs.append(extras[index])
            outcome.append(rpni_reference(Sample(pairs), canonical.domain))
        return time.perf_counter() - start, outcome

    def rebuilt():
        pairs = list(base_pairs)
        outcome = []
        start = time.perf_counter()
        for index in range(rounds):
            pairs.append(extras[index])
            outcome.append(rpni_dtop(Sample(pairs), canonical.domain))
        return time.perf_counter() - start, outcome

    def compiled():
        sample = Sample(base_pairs)
        outcome = []
        start = time.perf_counter()
        for index in range(rounds):
            sample = sample.extended_with([extras[index]])
            outcome.append(rpni_dtop(sample, canonical.domain))
        return time.perf_counter() - start, outcome

    legacy_s, legacy_out = legacy()
    rebuild_s, rebuild_out = rebuilt()
    compiled_s, compiled_out = compiled()
    for left, middle, right in zip(legacy_out, rebuild_out, compiled_out):
        assert _fingerprint(left) == _fingerprint(right)
        assert _fingerprint(middle) == _fingerprint(right)
    final = compiled_out[-1]
    return {
        "rounds": rounds,
        "final_sample_pairs": len(base_pairs) + rounds,
        "legacy_s": legacy_s,
        "compiled_s": compiled_s,
        "speedup": legacy_s / max(compiled_s, 1e-9),
        "rebuild_s": rebuild_s,
        "rebuild_speedup": rebuild_s / max(compiled_s, 1e-9),
        "tables": final.stats["tables"],
        "merge_index": final.stats["merge_index"],
    }


def test_e14_incremental_relearning_cycle(benchmark):
    row = benchmark.pedantic(
        lambda: _relearning_speedup(cycle_relabel, 16), rounds=1, iterations=1
    )
    _RESULTS["incremental_cycle_n16"] = row
    _flush_results()
    assert row["speedup"] >= 3.0, (
        f"incremental re-learning only {row['speedup']:.1f}× over the "
        f"pre-PR rebuild path on cycle n=16"
    )
    assert row["rebuild_speedup"] >= 3.0, (
        f"extending the sample only {row['rebuild_speedup']:.1f}× over "
        f"rebuilding it for the compiled learner on cycle n=16"
    )
    # The whole chain compiled once and was extended every round (the
    # round-1 extension precedes the lazy table build, hence rounds-1).
    assert row["tables"]["builds"] == 1
    assert row["tables"]["extends"] >= row["rounds"] - 1
    report(
        "E14/incremental-cycle",
        "growing-sample re-learning ≥ 3× vs per-round rebuild (cycle n=16)",
        f"{row['rounds']} rounds: pre-PR {row['legacy_s'] * 1e3:.1f} ms, "
        f"compiled rebuild {row['rebuild_s'] * 1e3:.1f} ms, "
        f"compiled {row['compiled_s'] * 1e3:.1f} ms "
        f"({row['speedup']:.1f}×, {row['rebuild_speedup']:.1f}×); tables "
        f"built once, extended {row['tables']['extends']}×",
    )


def test_e14_incremental_relearning_rotate(benchmark):
    row = benchmark.pedantic(
        lambda: _relearning_speedup(rotate_lists, 6), rounds=1, iterations=1
    )
    _RESULTS["incremental_rotate_k6"] = row
    _flush_results()
    assert row["speedup"] >= 3.0, (
        f"incremental re-learning only {row['speedup']:.1f}× over the "
        f"pre-PR rebuild path on rotate k=6"
    )
    assert row["rebuild_speedup"] >= 3.0, (
        f"extending the sample only {row['rebuild_speedup']:.1f}× over "
        f"rebuilding it for the compiled learner on rotate k=6"
    )
    assert row["tables"]["builds"] == 1
    report(
        "E14/incremental-rotate",
        "growing-sample re-learning ≥ 3× vs per-round rebuild (rotate k=6)",
        f"{row['rounds']} rounds: pre-PR {row['legacy_s'] * 1e3:.1f} ms, "
        f"compiled rebuild {row['rebuild_s'] * 1e3:.1f} ms, "
        f"compiled {row['compiled_s'] * 1e3:.1f} ms "
        f"({row['speedup']:.1f}×, {row['rebuild_speedup']:.1f}×)",
    )


# ---------------------------------------------------------------------------
# (c) active learning end-to-end
# ---------------------------------------------------------------------------


def test_e14_active_learning_end_to_end(benchmark):
    def run():
        target, domain = cycle_relabel(6)
        start = time.perf_counter()
        result = learn_actively(
            target.try_apply, domain, rng=random.Random(14)
        )
        elapsed = time.perf_counter() - start
        return elapsed, result, target, domain

    elapsed, result, target, domain = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    canonical = canonicalize(target, domain)
    assert canonicalize(result.learned.dtop, domain).same_translation(canonical)
    stats = result.sample.cache_stats()
    # Index reuse across counterexample rounds: compiled once, extended
    # incrementally, never rebuilt.
    assert stats["tables_builds"] == 1
    assert stats["tables_extends"] >= 1
    _RESULTS["active_end_to_end"] = {
        "elapsed_s": elapsed,
        "rounds": result.rounds,
        "membership_queries": result.membership_queries,
        "equivalence_tests": result.equivalence_tests,
        "sample_pairs": len(result.sample),
        "tables_builds": stats["tables_builds"],
        "tables_extends": stats["tables_extends"],
    }
    _flush_results()
    report(
        "E14/active",
        "active learning end-to-end with incremental sample tables",
        f"cycle n=6 learned in {elapsed * 1e3:.1f} ms, "
        f"{result.rounds} rounds, {result.membership_queries} membership "
        f"queries; sample compiled once, extended "
        f"{stats['tables_extends']}×",
    )
