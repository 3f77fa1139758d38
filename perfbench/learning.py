"""The learn-random workload: the paper's RPNI learner, in process.

Each target is a seeded ``random_total_dtop``.  One learning op is the
Gold round trip of the paper: canonicalize the target (Theorem 28),
build its characteristic sample (Proposition 34) and learn it back with
``rpni_dtop`` (Theorem 38).  The learned machine must equal the
canonical target rule for rule.
"""

from __future__ import annotations

import gc
import itertools
import time
from collections import deque
from contextlib import nullcontext
from typing import List

from repro.learning.charset import characteristic_sample
from repro.learning.rpni import rpni_dtop
from repro.transducers.minimize import canonicalize
from repro.workloads.families import random_total_dtop

from perfbench import inputs
from perfbench.layers import LayerRecorder
from perfbench.measure import Outcome, mean, ms, quantile

#: Targets generated per set-up round, and set-up rounds per run
#: (``setup_s`` is their median).  Further targets are generated while
#: the clock is stopped.
SETUP_TARGETS = 500
SETUP_ROUNDS = 5


def _generate(specs, count: int) -> deque:
    return deque(
        random_total_dtop(states, seed)
        for states, seed in itertools.islice(specs, count)
    )


class _Phase:
    """Per-target stage timings and learner statistics of a traced phase."""

    def __init__(self) -> None:
        self.stages: List[tuple] = []
        self.sample_nodes: List[int] = []
        self.stats: List[dict] = []


def _learn_loop(specs, pending: deque, seconds: float, outcome: Outcome, traced=None) -> None:
    """Learn targets until ``seconds`` of learning time are measured.

    ``traced`` is a ``(_Phase, LayerRecorder)`` pair for the traced half.
    """
    while outcome.busy_s < seconds:
        if not pending:
            with traced[1].paused() if traced else nullcontext():
                pending.extend(_generate(specs, SETUP_TARGETS))
        target, domain = pending.popleft()
        started = time.perf_counter()
        canonical = canonicalize(target, domain)
        canonicalized = time.perf_counter()
        sample = characteristic_sample(canonical)
        sampled = time.perf_counter()
        learned = rpni_dtop(sample, canonical.domain)
        finished = time.perf_counter()
        outcome.busy_s += finished - started
        outcome.record(finished - started)
        outcome.attempted += 1
        if not (
            learned.dtop.axiom == canonical.dtop.axiom
            and learned.dtop.rules == canonical.dtop.rules
        ):
            outcome.failed += 1
        if traced:
            phase = traced[0]
            phase.stages.append(
                (canonicalized - started, sampled - canonicalized, finished - sampled)
            )
            phase.sample_nodes.append(
                sum(source.size + output.size for source, output in sample.pairs)
            )
            phase.stats.append(learned.stats)


def learn_random(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    for _round in range(SETUP_ROUNDS):
        specs = inputs.learn_targets(seed)
        started = time.perf_counter()
        pending = _generate(specs, SETUP_TARGETS)
        outcome.setup.append(time.perf_counter() - started)
    state_counts = [len(target.states) for target, _domain in pending]
    gc.collect()
    if not trace:
        _learn_loop(specs, pending, seconds, outcome)
    else:
        untraced = Outcome()
        _learn_loop(specs, pending, seconds / 2, untraced)
        outcome.attempted, outcome.failed = untraced.attempted, untraced.failed
        phase, recorder = _Phase(), LayerRecorder()
        with recorder.installed():
            _learn_loop(specs, pending, seconds / 2, outcome, (phase, recorder))
        _learn_layers(outcome, phase, recorder)
        outcome.layers.put(
            "trace.overhead_share", untraced.ops_per_s / outcome.ops_per_s - 1.0, "ratio"
        )
    # The highest percentile with at least ten targets beyond it in a run.
    outcome.tail_s = quantile(outcome.latencies, 0.99)
    outcome.tail_note = f"p99 of {len(outcome.latencies)} targets"
    outcome.notes.update(
        {
            "target_states_min": min(state_counts),
            "target_states_max": max(state_counts),
            "timed_targets": outcome.ops,
        }
    )
    return outcome


def _learn_layers(outcome: Outcome, phase: _Phase, recorder: LayerRecorder) -> None:
    layers = outcome.layers
    canonicalize_s = [stage[0] for stage in phase.stages]
    sample_s = [stage[1] for stage in phase.stages]
    rpni_s = [stage[2] for stage in phase.stages]
    total = sum(map(sum, phase.stages)) or 1.0
    layers.put("minimize.canonicalize_p50_ms", ms(quantile(canonicalize_s, 0.5)), "ms")
    layers.put("charset.sample_p50_ms", ms(quantile(sample_s, 0.5)), "ms")
    layers.put("charset.sample_nodes", quantile(phase.sample_nodes, 0.5), "count")
    layers.put("rpni.learn_p50_ms", ms(quantile(rpni_s, 0.5)), "ms")
    layers.put("rpni.learn_p99_ms", ms(quantile(rpni_s, 0.99)), "ms")
    layers.put("rpni.ok_states_mean", mean([s["ok_states"] for s in phase.stats]), "count")
    layers.put("rpni.merges_mean", mean([s["merges"] for s in phase.stats]), "count")
    layers.put(
        "rpni.merge_lookups_mean",
        mean([s.get("merge_index", {}).get("lookups", 0) for s in phase.stats]),
        "count",
    )
    layers.put(
        "rpni.table_misses_mean",
        mean([s.get("tables", {}).get("misses", 0) for s in phase.stats]),
        "count",
    )
    layers.put("share.canonicalize", sum(canonicalize_s) / total, "ratio")
    layers.put("share.sample", sum(sample_s) / total, "ratio")
    layers.put("share.rpni", sum(rpni_s) / total, "ratio")
    layers.put(
        "engine.execute_p50_ms", ms(quantile(recorder.get("engine.execute"), 0.5)), "ms"
    )
