"""Memoized evaluation: the engine's persistent memo agrees with cold
runs and its counters track shared subtrees; the recursive interpreters
keep nothing between calls."""

import gc
import random
import tracemalloc

from hypothesis import given, settings

from repro.engine import Engine, compile_dtop, engine_for
from repro.trees.generate import random_tree
from repro.trees.tree import Tree
from repro.transducers.domain import domain_dtta
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import rhs_tree
from repro.transducers.run import run_stopped
from repro.trees.paths import node_to_path

from tests.conftest import BINARY_ALPHABET, trees_over


def flip_transducer() -> DTOP:
    """The classic child-swapping DTOP over the binary alphabet."""
    return DTOP(
        BINARY_ALPHABET,
        BINARY_ALPHABET,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("f", ("q", 2), ("q", 1))),
            ("q", "g"): rhs_tree(("g", ("q", 1))),
            ("q", "a"): rhs_tree("a"),
            ("q", "b"): rhs_tree("b"),
        },
    )


def fresh_clone(transducer: DTOP) -> DTOP:
    """A structurally identical transducer with no compiled engine."""
    return DTOP(
        transducer.input_alphabet,
        transducer.output_alphabet,
        transducer.axiom,
        transducer.rules,
    )


def cold_engine(transducer: DTOP) -> Engine:
    return Engine(compile_dtop(transducer))


class TestMemoizedEqualsUnmemoized:
    @given(trees_over(BINARY_ALPHABET))
    @settings(max_examples=120)
    def test_memoized_run_equals_cold_run(self, s):
        machine = flip_transducer()
        warm = cold_engine(machine)
        warm.run(s)             # populate the memo
        again = warm.run(s)     # fully served from cache
        cold = cold_engine(machine).run(s)
        assert again is cold is machine.apply(s)

    def test_random_trees_batch(self):
        rng = random.Random(20260728)
        warm = cold_engine(flip_transducer())
        inputs = [
            random_tree(BINARY_ALPHABET, 8, rng) for _ in range(60)
        ]
        warm_results = [warm.run(s) for s in inputs]
        cold_results = [cold_engine(flip_transducer()).run(s) for s in inputs]
        assert warm_results == cold_results

    @given(trees_over(BINARY_ALPHABET))
    @settings(max_examples=60)
    def test_stopped_runs_unaffected_by_memo_state(self, s):
        warm = flip_transducer()
        engine_for(warm).run(s)
        cold = fresh_clone(warm)
        for address, _ in s.subtrees():
            u = node_to_path(s, address)
            assert run_stopped(warm, s, u) == run_stopped(cold, s, u)


class TestCacheCounters:
    def test_repeat_apply_hits_cache(self):
        engine = cold_engine(flip_transducer())
        s = Tree("f", (Tree("g", (Tree("a", ()),)), Tree("b", ())))
        engine.run(s)
        after_first = engine.cache_stats
        assert after_first["misses"] > 0
        assert after_first["entries"] == after_first["misses"]
        engine.run(s)
        after_second = engine.cache_stats
        assert after_second["misses"] == after_first["misses"]
        assert after_second["hits"] > after_first["hits"]

    def test_shared_subtrees_translated_once(self):
        engine = cold_engine(flip_transducer())
        shared = Tree("g", (Tree("a", ()),))
        s = Tree("f", (shared, shared))
        engine.run(s)
        # Nodes: f, shared g(a) (once!), a — three distinct (state, uid) pairs.
        assert engine.cache_stats["misses"] == 3

    def test_clear_cache_resets(self):
        engine = cold_engine(flip_transducer())
        engine.run(Tree("a", ()))
        assert engine.cache_stats["entries"] > 0
        engine.clear_cache()
        assert set(engine.cache_stats.values()) == {0}

    def test_memo_persists_across_inputs(self):
        engine = cold_engine(flip_transducer())
        sub = Tree("g", (Tree("b", ()),))
        engine.run(Tree("f", (sub, Tree("a", ()))))
        misses_before = engine.cache_stats["misses"]
        engine.run(Tree("f", (Tree("a", ()), sub)))  # sub already translated
        assert engine.cache_stats["misses"] == misses_before + 1  # only the new root


def distinct_input(index: int) -> Tree:
    """The ``index``-th of 4,096 distinct trees: a right comb of twelve
    ``f`` nodes whose left leaves spell ``index`` in binary."""
    node = Tree("a", ())
    for bit in range(12):
        node = Tree("f", (Tree("ab"[(index >> bit) & 1], ()), node))
    return node


def retained_bytes(run) -> int:
    """Heap still held after ``run`` saw 3,000 distinct inputs, each
    dropped after its run."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for index in range(3000):
            run(distinct_input(index))
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


class TestInterpretersKeepNothing:
    def test_dtop_apply_retains_nothing_across_calls(self):
        machine = flip_transducer()
        assert retained_bytes(machine.apply) < 256 * 1024

    def test_dtta_accepts_retains_nothing_across_calls(self):
        domain = domain_dtta(flip_transducer())
        assert retained_bytes(domain.accepts) < 256 * 1024
