"""The DTOP engine, :class:`~repro.engine.execute.Engine`.

The engine must be observationally identical to the recursive
interpreter: same outputs, byte-identical
:class:`UndefinedTransductionError` messages, same ``eval_state``
behavior, and no ``RecursionError`` on deep inputs.  The concurrency
test is a regression for the double-compile race in ``engine_for``.
The memo-bound tests shrink ``MEMO_LIMIT`` and check eviction: bounded
memos, exact outcomes, cumulative counters, and threads sharing one
engine while evictions fire.
"""

import gc
import importlib.util
import pickle
import random
import sys
import threading

import pytest

from repro.engine import engine_for
from repro.engine import execute
from repro.engine.execute import Engine
from repro.errors import UndefinedTransductionError
from repro.serve import shard
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import rhs_tree
from repro.trees.alphabet import RankedAlphabet
from repro.trees.generate import monadic_tree, random_tree
from repro.trees.tree import Tree
from repro.workloads.families import cycle_relabel, random_total_dtop


def outcome(run, source):
    try:
        return run(source)
    except UndefinedTransductionError as error:
        return ("undefined", type(error), str(error))


def fresh_partial(seed):
    machine, _domain = random_total_dtop(num_states=4, seed=seed)
    rng = random.Random(seed * 31 + 1)
    kept = {
        key: rhs for key, rhs in machine.rules.items() if rng.random() > 1 / 3
    }
    return DTOP(
        machine.input_alphabet, machine.output_alphabet, machine.axiom, kept
    )


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_total_machine_matches_interpreter(self, seed):
        machine, _domain = random_total_dtop(num_states=4, seed=seed)
        rng = random.Random(seed * 101 + 7)
        sources = [
            random_tree(machine.input_alphabet, max_height=7, rng=rng)
            for _ in range(40)
        ]
        assert engine_for(machine).run_batch(sources) == [
            machine.apply(source) for source in sources
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_machine_same_outputs_same_errors(self, seed):
        partial = fresh_partial(seed)
        reference = fresh_partial(seed)
        engine = engine_for(partial)
        rng = random.Random(seed * 7 + 3)
        sources = [
            random_tree(partial.input_alphabet, max_height=6, rng=rng)
            for _ in range(60)
        ]
        undefined = 0
        for source in sources:
            expected = outcome(reference.apply, source)
            assert outcome(engine.run, source) == expected
            if isinstance(expected, tuple):
                undefined += 1
        assert undefined > 0  # the workload must exercise failures
        # Warm re-run: memoized answers must not change outcomes.
        for source in sources:
            assert outcome(engine.run, source) == outcome(
                fresh_partial(seed).apply, source
            )

    def test_try_run_batch_matches_interpreter(self):
        partial = fresh_partial(2)
        reference = fresh_partial(2)
        rng = random.Random(11)
        sources = [
            random_tree(partial.input_alphabet, max_height=6, rng=rng)
            for _ in range(50)
        ]
        assert engine_for(partial).try_run_batch(sources) == [
            reference.try_apply(source) for source in sources
        ]

    def test_eval_state_matches_interpreter(self):
        machine, _domain = random_total_dtop(num_states=3, seed=5)
        engine = engine_for(machine)
        reference, _domain = random_total_dtop(num_states=3, seed=5)
        rng = random.Random(5)
        source = random_tree(machine.input_alphabet, max_height=5, rng=rng)
        for state in machine.states:
            assert engine.eval_state(state, source) == reference.eval_state(
                state, source
            )
        with pytest.raises(UndefinedTransductionError) as seen:
            engine.eval_state("ghost", source)
        with pytest.raises(UndefinedTransductionError) as expected:
            reference.eval_state("ghost", source)
        assert str(seen.value) == str(expected.value)

    def test_depth_100k_no_recursion_error(self):
        machine, _domain = cycle_relabel(3)
        deep = monadic_tree(["a"] * 100_000)
        output = engine_for(machine).run(deep)
        assert output.height == 100_001
        assert output.label == "c0"

    def test_deep_failure_propagates_iteratively(self):
        alphabet = RankedAlphabet({"a": 1, "e": 0})
        machine = DTOP(
            alphabet,
            alphabet,
            rhs_tree(("q", 0)),
            {("q", "a"): rhs_tree(("a", ("q", 1)))},
        )
        deep = monadic_tree(["a"] * 100_000)
        engine = engine_for(machine)
        assert engine.try_run(deep) is None
        with pytest.raises(
            UndefinedTransductionError,
            match="no rule for state 'q' on symbol 'e'",
        ):
            engine.run(deep)

    def test_cache_stats_and_clear(self):
        machine, _domain = cycle_relabel(2)
        engine = engine_for(machine)
        engine.run(monadic_tree(["a"] * 10))
        stats = engine.cache_stats
        assert stats["entries"] > 0
        assert stats["misses"] > 0
        engine.clear_cache()
        assert engine.cache_stats["entries"] == 0
        assert engine.memo_size() == 0
        # Still correct after a cache drop.
        source = monadic_tree(["a"] * 4)
        assert engine.run(source) == machine.apply(source)

    def test_payload_roundtrip_rebuilds_an_engine(self):
        machine, _domain = cycle_relabel(2)
        compiled = engine_for(machine).compiled
        engine = shard.unpack_engine(shard.pack_engine(compiled))
        assert type(engine) is Engine
        source = monadic_tree(["a"] * 12)
        assert engine.run(source) == machine.apply(source)


FAB = RankedAlphabet({"f": 2, "a": 0, "b": 0})


def single_state_partial():
    """One state calling every child; no rule for ``b``."""
    return DTOP(
        FAB,
        FAB,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("f", ("q", 2), ("q", 1))),
            ("q", "a"): rhs_tree("a"),
        },
    )


def two_call_axiom():
    """Axiom ``g(q(x0), p(x0))``: ``q`` lacks ``b``, ``p`` lacks ``a``."""
    source = RankedAlphabet({"f": 2, "a": 0, "b": 0, "c": 0})
    output = RankedAlphabet({"f": 2, "a": 0, "b": 0, "c": 0, "g": 2})
    return DTOP(
        source,
        output,
        rhs_tree(("g", ("q", 0), ("p", 0))),
        {
            ("q", "f"): rhs_tree(("f", ("q", 2), ("q", 1))),
            ("q", "a"): rhs_tree("a"),
            ("q", "c"): rhs_tree("c"),
            ("p", "f"): rhs_tree(("f", ("p", 1), ("p", 2))),
            ("p", "b"): rhs_tree("b"),
            ("p", "c"): rhs_tree("a"),
        },
    )


def fab_forest(seed, count=30):
    """Random ``f/a/b`` trees, each repeated, in shuffled order."""
    rng = random.Random(seed)
    distinct = [random_tree(FAB, max_height=4, rng=rng) for _ in range(count)]
    forest = distinct * 2
    rng.shuffle(forest)
    return forest


def interpreter_outcomes(machine, sources):
    outcomes = []
    for source in sources:
        try:
            outcomes.append(machine.apply(source))
        except UndefinedTransductionError as error:
            outcomes.append(("undefined", str(error)))
    return outcomes


def comparable(outcomes):
    return [
        ("undefined", str(item))
        if isinstance(item, UndefinedTransductionError)
        else item
        for item in outcomes
    ]


class TestBatchOutcomes:
    """``run_batch_outcomes`` on forests with repeated roots and failures."""

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_roots_match_one_by_one(self, seed):
        machine = fresh_partial(seed)
        rng = random.Random(seed * 13 + 5)
        distinct = [
            random_tree(machine.input_alphabet, max_height=5, rng=rng)
            for _ in range(25)
        ]
        forest = distinct * 3
        rng.shuffle(forest)
        outcomes = engine_for(machine).run_batch_outcomes(forest)
        expected = interpreter_outcomes(fresh_partial(seed), forest)
        assert comparable(outcomes) == expected
        assert any(isinstance(item, tuple) for item in expected)

    def test_single_state_walk_reports_failures(self):
        machine = single_state_partial()
        forest = fab_forest(1)
        outcomes = engine_for(machine).run_batch_outcomes(forest)
        expected = interpreter_outcomes(single_state_partial(), forest)
        assert comparable(outcomes) == expected
        assert "no rule for state 'q' on symbol 'b'" in {
            item[1] for item in expected if isinstance(item, tuple)
        }
        assert any(not isinstance(item, tuple) for item in expected)

    def test_warm_batch_answers_from_the_memo(self):
        machine = single_state_partial()
        forest = [source for source in fab_forest(2) if "b" not in str(source)]
        assert forest
        engine = engine_for(machine)
        cold = engine.run_batch(forest)
        misses = engine.cache_stats["misses"]
        hits = engine.cache_stats["hits"]
        assert engine.run_batch(forest) == cold
        assert engine.cache_stats["misses"] == misses
        assert engine.cache_stats["hits"] >= hits + len(forest)
        assert cold == [single_state_partial().apply(s) for s in forest]

    def test_composite_axiom_reports_first_failing_call(self):
        machine = two_call_axiom()
        rng = random.Random(3)
        c = Tree("c", ())
        forest = [
            random_tree(machine.input_alphabet, max_height=3, rng=rng)
            for _ in range(30)
        ]
        forest += [c, Tree("f", (c, c)), Tree("a", ()), Tree("b", ())] * 2
        outcomes = engine_for(machine).run_batch_outcomes(forest)
        expected = interpreter_outcomes(two_call_axiom(), forest)
        assert comparable(outcomes) == expected
        a = Tree("a", ())
        assert outcomes[-7] == Tree(
            "g", (Tree("f", (c, c)), Tree("f", (a, a)))
        )
        # Both calls fail on f(a, b); the axiom's left call is reported.
        with pytest.raises(UndefinedTransductionError) as seen:
            engine_for(machine).run(Tree("f", (a, Tree("b", ()))))
        assert str(seen.value) == "no rule for state 'q' on symbol 'b'"


FGAZ = RankedAlphabet({"f": 2, "g": 1, "a": 0, "z": 0})
FGA = RankedAlphabet({"f": 2, "g": 1, "a": 0})


def one_state_without_z():
    """Non-deleting, one state; no rule for ``z``."""
    return DTOP(
        FGAZ,
        FGAZ,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("f", ("q", 2), ("q", 1))),
            ("q", "g"): rhs_tree(("g", ("q", 1))),
            ("q", "a"): rhs_tree("a"),
        },
    )


def two_states_without_z():
    """Non-deleting, two states; ``p`` has no rule for ``z``."""
    return DTOP(
        FGAZ,
        FGAZ,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("f", ("p", 2), ("q", 1))),
            ("p", "f"): rhs_tree(("f", ("q", 1), ("p", 2))),
            ("q", "g"): rhs_tree(("g", ("p", 1))),
            ("p", "g"): rhs_tree(("g", ("g", ("q", 1)))),
            ("q", "a"): rhs_tree("a"),
            ("p", "a"): rhs_tree(("g", "a")),
            ("q", "z"): rhs_tree("z"),
        },
    )


def distinct_rounds(count, seed):
    """Forests of nine fresh defined trees and one undefined one."""
    rng = random.Random(seed)
    for _round in range(count):
        forest = [random_tree(FGA, max_height=7, rng=rng) for _ in range(9)]
        undefined = Tree(
            "f", (random_tree(FGA, max_height=4, rng=rng), Tree("z", ()))
        )
        forest.insert(rng.randrange(10), undefined)
        yield forest


class TestMemoBound:
    """The memo is cleared wholesale past ``MEMO_LIMIT`` at a batch
    boundary; outcomes and the cumulative counters are unaffected."""

    LIMIT = 32

    @pytest.fixture(autouse=True)
    def small_limit(self, monkeypatch):
        monkeypatch.setattr(execute, "MEMO_LIMIT", self.LIMIT)

    @pytest.mark.parametrize(
        "make", [two_states_without_z, one_state_without_z]
    )
    def test_distinct_forests_stay_bounded_and_exact(self, make):
        engine = engine_for(make())
        hits = misses = 0
        for forest in distinct_rounds(12, seed=17):
            outcomes = engine.run_batch_outcomes(forest)
            expected = interpreter_outcomes(make(), forest)
            assert comparable(outcomes) == expected
            assert sum(isinstance(item, tuple) for item in expected) == 1
            # This batch's demand is at most what a cold engine memoizes.
            alone = Engine(engine.compiled)
            alone.run_batch_outcomes(forest)
            assert engine.memo_size() <= self.LIMIT + alone.memo_size()
            stats = engine.cache_stats
            assert stats["hits"] >= hits and stats["misses"] >= misses
            hits, misses = stats["hits"], stats["misses"]
        assert engine.cache_stats["evictions"] >= 6
        assert misses > 12 * self.LIMIT
        engine.clear_cache()
        counters = ("hits", "misses", "batches", "evictions", "entries")
        assert {key: engine.cache_stats[key] for key in counters} == (
            dict.fromkeys(counters, 0)
        )

    def test_eval_state_right_after_an_eviction(self):
        engine = engine_for(two_states_without_z())
        reference = two_states_without_z()
        engine.run_batch_outcomes(next(distinct_rounds(1, seed=5)))
        assert engine.memo_size() > self.LIMIT
        source = random_tree(FGA, max_height=7, rng=random.Random(6))
        assert engine.eval_state("p", source) == reference.eval_state(
            "p", source
        )
        assert engine.cache_stats["evictions"] == 1
        assert engine.eval_state("q", source) == reference.eval_state(
            "q", source
        )


def test_a_document_encoded_again_hits_the_memo():
    """The memo keeps the subtrees it keys alive, so a document parsed
    and encoded again, into fresh objects, gets the same uids and hits;
    the clear lets them go."""
    from pathlib import Path

    from repro.codec import load_transformation
    from repro.trees.tree import interned_count
    from repro.workloads.library import library_document, transform_library
    from repro.xml import parse_xml, serialize_xml

    models = Path(__file__).resolve().parents[2] / "models"
    transformation = load_transformation(models / "library@1.json")
    engine = engine_for(transformation.transducer)
    text = serialize_xml(library_document(3))
    gc.collect()
    before = interned_count()
    transformation.apply(parse_xml(text))
    gc.collect()
    misses = engine.cache_stats["misses"]
    assert misses > 0
    result = transformation.apply(parse_xml(text))
    assert result == transform_library(parse_xml(text))
    assert engine.cache_stats["misses"] == misses
    engine.clear_cache()
    del result
    gc.collect()
    assert interned_count() <= before


class TestSharedEngineAcrossThreads:
    """Threads sharing one engine while its bound keeps firing: an
    eviction must never land between one thread's sweep and its replay."""

    def test_concurrent_batches_with_evictions_stay_exact(self, monkeypatch):
        monkeypatch.setattr(execute, "MEMO_LIMIT", 16)
        engine = engine_for(two_states_without_z())
        rounds = [list(distinct_rounds(6, seed=40 + n)) for n in range(6)]
        expected = [
            [interpreter_outcomes(two_states_without_z(), f) for f in mine]
            for mine in rounds
        ]
        seen = [None] * len(rounds)
        start = threading.Barrier(len(rounds), timeout=10)

        def drive(slot):
            start.wait()
            seen[slot] = [
                comparable(engine.run_batch_outcomes(forest))
                for forest in rounds[slot]
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=drive, args=(slot,))
                for slot in range(len(rounds))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == expected
        assert engine.cache_stats["evictions"] > 0


class TestEngineCache:
    def test_engine_for_shares_one_engine_per_machine(self):
        machine, _domain = cycle_relabel(2)
        engine = engine_for(machine)
        assert type(engine) is Engine
        assert engine_for(machine) is engine
        assert machine._engine is engine

    def test_machine_with_a_live_engine_pickles(self):
        machine, _domain = random_total_dtop(num_states=3, seed=2)
        source = random_tree(
            machine.input_alphabet, max_height=5, rng=random.Random(2)
        )
        expected = engine_for(machine).run(source)
        clone = pickle.loads(pickle.dumps(machine))
        assert clone._engine.memo_size() == 0  # the memo is not pickled
        assert engine_for(clone).run(source) is expected

    def test_clear_cache_keeps_the_engine(self):
        machine, _domain = cycle_relabel(2)
        source = monadic_tree(["a"] * 10)
        engine = engine_for(machine)
        expected = engine.run(source)
        assert engine.memo_size() > 0
        engine.clear_cache()
        assert engine.memo_size() == 0
        assert machine._engine is engine
        assert engine.run(source) is expected

    def test_concurrent_first_use_compiles_once(self, monkeypatch):
        machine, _domain = random_total_dtop(num_states=4, seed=3)
        calls = []
        real_compile = execute.compile_dtop

        def counting_compile(transducer):
            calls.append(threading.get_ident())
            return real_compile(transducer)

        monkeypatch.setattr(execute, "compile_dtop", counting_compile)
        workers = 8
        barrier = threading.Barrier(workers)
        engines = []
        failures = []

        def hammer():
            barrier.wait()
            try:
                engines.append(engine_for(machine))
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(calls) == 1
        # Every thread got the one engine built from the single compile.
        assert {id(engine) for engine in engines} == {id(machine._engine)}


FGHABC = RankedAlphabet({"f": 2, "g": 1, "h": 3, "a": 0, "b": 0, "c": 0})
FGAB = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})
UPPER = RankedAlphabet({"F": 2, "G": 1, "A": 0, "B": 0})


def copying():
    """Non-linear rules: one child read twice, by one state and by two."""
    return DTOP(
        FGAB,
        FGHABC,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("h", ("q", 1), ("p", 1), ("q", 2))),
            ("q", "g"): rhs_tree(("f", ("q", 1), ("q", 1))),
            ("q", "a"): rhs_tree("a"),
            ("q", "b"): rhs_tree("b"),
            ("p", "f"): rhs_tree(("g", ("p", 2))),
            ("p", "g"): rhs_tree(("g", ("q", 1))),
            ("p", "a"): rhs_tree("c"),
            ("p", "b"): rhs_tree("c"),
        },
    )


def deleting():
    """Rules that drop a child, so undefined subtrees may go unread."""
    return DTOP(
        FGAB,
        FGAB,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("g", ("q", 2))),
            ("q", "g"): rhs_tree(("g", ("q", 1))),
            ("q", "a"): rhs_tree("a"),
        },
    )


def collapsing():
    """Bare-call right-hand sides: an input node emits no output node."""
    return DTOP(
        FGAB,
        FGAB,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("p", 1)),
            ("q", "g"): rhs_tree(("q", 1)),
            ("q", "a"): rhs_tree("a"),
            ("q", "b"): rhs_tree("b"),
            ("p", "f"): rhs_tree(("f", ("q", 2), ("q", 1))),
            ("p", "g"): rhs_tree(("p", 1)),
            ("p", "a"): rhs_tree("b"),
            ("p", "b"): rhs_tree("a"),
        },
    )


def ground_rules():
    """Constant right-hand sides that read none of their children."""
    return DTOP(
        FGAB,
        FGHABC,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("h", "c", ("q", 1), "c")),
            ("q", "g"): rhs_tree(("f", "a", "b")),
            ("q", "a"): rhs_tree("c"),
        },
    )


def ground_axiom():
    """An axiom without a state call: every input maps to one tree."""
    return DTOP(FGAB, FGAB, rhs_tree(("f", "a", ("g", "b"))), {})


def three_call_axiom():
    """Axiom ``h(q(x0), p(x0), q(x0))`` over two partial states."""
    return DTOP(
        FGAB,
        FGHABC,
        rhs_tree(("h", ("q", 0), ("p", 0), ("q", 0))),
        {
            ("q", "f"): rhs_tree(("f", ("q", 1), ("q", 2))),
            ("q", "g"): rhs_tree(("g", ("q", 1))),
            ("q", "a"): rhs_tree("a"),
            ("q", "b"): rhs_tree("b"),
            ("p", "f"): rhs_tree(("f", ("p", 2), ("p", 1))),
            ("p", "a"): rhs_tree("c"),
            ("p", "b"): rhs_tree("c"),
        },
    )


def growing():
    """Outputs deeper than their inputs: each node emits a chain."""
    return DTOP(
        FGAB,
        FGAB,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("g", ("f", ("g", ("q", 1)), ("q", 2)))),
            ("q", "g"): rhs_tree(("g", ("g", ("q", 1)))),
            ("q", "a"): rhs_tree(("g", ("g", ("g", "a")))),
            ("q", "b"): rhs_tree("b"),
        },
    )


def leaf_only_state():
    """``p`` has rules on leaves only, so deep first children fail."""
    return DTOP(
        FGAB,
        FGAB,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("f", ("p", 1), ("q", 2))),
            ("q", "g"): rhs_tree(("g", ("q", 1))),
            ("q", "a"): rhs_tree("a"),
            ("q", "b"): rhs_tree("b"),
            ("p", "a"): rhs_tree("b"),
            ("p", "b"): rhs_tree("a"),
        },
    )


def relabel_to_upper():
    """Output alphabet disjoint from the input alphabet."""
    return DTOP(
        FGAB,
        UPPER,
        rhs_tree(("q", 0)),
        {
            ("q", "f"): rhs_tree(("F", ("q", 1), ("q", 2))),
            ("q", "g"): rhs_tree(("G", ("q", 1))),
            ("q", "a"): rhs_tree("A"),
            ("q", "b"): rhs_tree("B"),
        },
    )


RULE_SHAPES = [
    copying,
    deleting,
    collapsing,
    ground_rules,
    ground_axiom,
    three_call_axiom,
    growing,
    leaf_only_state,
    relabel_to_upper,
]


def fgab_forest(seed, count=25):
    """Random ``f/g/a/b`` trees, each repeated, in shuffled order."""
    rng = random.Random(seed)
    distinct = [random_tree(FGAB, max_height=5, rng=rng) for _ in range(count)]
    forest = distinct * 2
    rng.shuffle(forest)
    return forest


class TestRuleShapes:
    """Right-hand-side and axiom shapes the random families rarely draw:
    the engine's batch and per-state answers match the interpreter's."""

    @pytest.mark.parametrize("make", RULE_SHAPES)
    def test_batch_matches_interpreter(self, make):
        forest = fgab_forest(len(make.__name__))
        outcomes = engine_for(make()).run_batch_outcomes(forest)
        assert comparable(outcomes) == interpreter_outcomes(make(), forest)

    @pytest.mark.parametrize("make", RULE_SHAPES)
    def test_eval_state_matches_interpreter_on_every_subtree(self, make):
        machine = make()
        engine = engine_for(machine)
        rng = random.Random(len(make.__name__) + 1)
        sources = [random_tree(FGAB, max_height=5, rng=rng) for _ in range(6)]
        subtrees = {node for source in sources for _, node in source.subtrees()}
        # "ghost" has no rules: every machine reports it undefined.
        for state in sorted(machine.states) + ["ghost"]:
            for node in sorted(subtrees, key=str):
                reference = make()
                assert outcome(
                    lambda tree: engine.eval_state(state, tree), node
                ) == outcome(lambda tree: reference.eval_state(state, tree), node)


class TestSingleEngine:
    """``Engine`` is the only engine: nothing names or selects another."""

    def test_engine_carries_no_backend_name(self):
        machine, _domain = cycle_relabel(2)
        engine = engine_for(machine)
        engine.run(monadic_tree(["a"] * 3))
        assert not hasattr(engine, "backend")
        assert set(engine.cache_stats) == {
            "hits", "misses", "batches", "evictions", "entries"
        }

    def test_compiled_tables_carry_no_arity_table(self):
        machine, _domain = random_total_dtop(num_states=2, seed=1)
        assert not hasattr(engine_for(machine).compiled, "symbol_arity")

    def test_backends_subpackage_is_gone(self):
        assert importlib.util.find_spec("repro.engine.backends") is None

    @pytest.mark.parametrize("value", ["codegen", "no-such-engine"])
    def test_repro_backend_environment_is_ignored(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BACKEND", value)
        machine, _domain = cycle_relabel(3)
        source = monadic_tree(["a"] * 7)
        engine = engine_for(machine)
        assert type(engine) is Engine
        assert engine.run(source) == cycle_relabel(3)[0].apply(source)

    def test_empty_batches_answer_empty_and_memoize_nothing(self):
        machine, _domain = cycle_relabel(2)
        engine = engine_for(machine)
        assert engine.run_batch([]) == []
        assert engine.run_batch_outcomes([]) == []
        assert engine.try_run_batch([]) == []
        stats = engine.cache_stats
        assert (stats["entries"], stats["hits"], stats["misses"]) == (0, 0, 0)
