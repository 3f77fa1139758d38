"""The two execution backends, ``tables`` and ``codegen``.

``codegen`` must be observationally identical to the dict-driven
``tables`` engine and to the recursive interpreter: same outputs,
byte-identical :class:`UndefinedTransductionError` messages, same
``eval_state`` behavior, and no ``RecursionError`` on deep inputs.  The
name-table tests pin the selection precedence (call argument > env >
default) and the failure mode for unknown names; the concurrency test
is a regression for the double-compile race in ``engine_for``.  The
memo-bound tests shrink ``MEMO_LIMIT`` and check eviction: bounded
memos, exact outcomes, cumulative counters, and threads sharing one
engine while evictions fire.
"""

import pickle
import random
import sys
import threading

import pytest

from repro import api
from repro.engine import (
    AUTO_BACKEND,
    DEFAULT_BACKEND,
    EngineSet,
    available_backends,
    backend_stats,
    engine_for,
    get_backend,
    reset_backend_stats,
    resolve_backend,
)
from repro.engine import execute
from repro.engine.backends import ENV_VAR, note_batch
from repro.engine.backends.codegen import CodegenEngine
from repro.engine.execute import Engine
from repro.errors import BackendError, UndefinedTransductionError
from repro.serve import shard
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import rhs_tree
from repro.trees.alphabet import RankedAlphabet
from repro.trees.generate import monadic_tree, random_tree
from repro.trees.tree import Tree
from repro.workloads.families import cycle_relabel, random_total_dtop

ALL_BACKENDS = available_backends()


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


class TestRegistry:
    def test_tables_codegen_always_registered(self):
        assert ALL_BACKENDS == ["tables", "codegen"]

    def test_unknown_backend_raises(self):
        with pytest.raises(BackendError, match="unknown execution backend"):
            get_backend("no-such-backend")
        with pytest.raises(
            BackendError,
            match=r"^unknown execution backend 'nope' "
            r"\(registered: codegen, tables\)$",
        ):
            resolve_backend("nope")

    def test_resolution_precedence(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend() == DEFAULT_BACKEND
        assert resolve_backend(None, None) == DEFAULT_BACKEND
        monkeypatch.setenv(ENV_VAR, "codegen")
        assert resolve_backend() == "codegen"
        # Any explicit preference outranks the environment.
        assert resolve_backend("tables") == "tables"
        assert resolve_backend(None, "tables") == "tables"
        assert resolve_backend("tables", "codegen") == "tables"

    def test_env_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "tabels")
        with pytest.raises(BackendError, match="tabels"):
            resolve_backend()

    def test_engine_for_honors_env(self, monkeypatch):
        machine, _domain = cycle_relabel(2)
        monkeypatch.setenv(ENV_VAR, "codegen")
        assert engine_for(machine).backend == "codegen"
        assert engine_for(machine, "tables").backend == "tables"

    def test_auto_from_any_source_is_codegen(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend(None, AUTO_BACKEND) == "codegen"
        monkeypatch.setenv(ENV_VAR, AUTO_BACKEND)
        assert resolve_backend() == "codegen"
        assert resolve_backend(None, None, AUTO_BACKEND) == "codegen"

    def test_auto_is_a_resolution_alias_not_a_table_entry(self):
        assert AUTO_BACKEND not in ALL_BACKENDS
        with pytest.raises(BackendError, match="unknown execution backend"):
            get_backend(AUTO_BACKEND)
        machine, _domain = cycle_relabel(2)
        assert engine_for(machine, AUTO_BACKEND).backend == "codegen"

    def test_empty_env_means_default(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "")
        assert resolve_backend() == DEFAULT_BACKEND

    @pytest.mark.parametrize(
        "name, engine_class", [("tables", Engine), ("codegen", CodegenEngine)]
    )
    def test_factory_builds_the_named_engine(self, name, engine_class):
        machine, _domain = cycle_relabel(2)
        compiled = engine_for(machine, "tables").compiled
        engine = get_backend(name)(compiled)
        assert type(engine) is engine_class
        assert engine.backend == name
        assert engine.compiled is compiled

    def test_available_backends_is_a_fresh_list(self):
        names = available_backends()
        names.append("gpu")
        names.remove("codegen")
        assert available_backends() == ["tables", "codegen"]
        with pytest.raises(BackendError):
            get_backend("gpu")


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_total_machine_matches_tables(self, backend, seed):
        machine, _domain = random_total_dtop(num_states=4, seed=seed)
        rng = random.Random(seed * 101 + 7)
        sources = [
            random_tree(machine.input_alphabet, max_height=7, rng=rng)
            for _ in range(40)
        ]
        engine = engine_for(machine, backend)
        reference = engine_for(machine, "tables")
        assert engine.run_batch(sources) == reference.run_batch(sources)

    @pytest.mark.parametrize("seed", range(4))
    def test_partial_machine_same_outputs_same_errors(self, backend, seed):
        partial = fresh_partial(seed)
        reference = fresh_partial(seed)
        engine = engine_for(partial, backend)
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

    def test_try_run_batch_matches_interpreter(self, backend):
        partial = fresh_partial(2)
        reference = fresh_partial(2)
        rng = random.Random(11)
        sources = [
            random_tree(partial.input_alphabet, max_height=6, rng=rng)
            for _ in range(50)
        ]
        assert engine_for(partial, backend).try_run_batch(sources) == [
            reference.try_apply(source) for source in sources
        ]

    def test_eval_state_matches_tables(self, backend):
        machine, _domain = random_total_dtop(num_states=3, seed=5)
        engine = engine_for(machine, backend)
        reference = engine_for(machine, "tables")
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

    def test_depth_100k_no_recursion_error(self, backend):
        machine, _domain = cycle_relabel(3)
        deep = monadic_tree(["a"] * 100_000)
        output = engine_for(machine, backend).run(deep)
        assert output.height == 100_001
        assert output.label == "c0"

    def test_deep_failure_propagates_iteratively(self, backend):
        alphabet = RankedAlphabet({"a": 1, "e": 0})
        machine = DTOP(
            alphabet,
            alphabet,
            rhs_tree(("q", 0)),
            {("q", "a"): rhs_tree(("a", ("q", 1)))},
        )
        deep = monadic_tree(["a"] * 100_000)
        engine = engine_for(machine, backend)
        assert engine.try_run(deep) is None
        with pytest.raises(
            UndefinedTransductionError,
            match="no rule for state 'q' on symbol 'e'",
        ):
            engine.run(deep)

    def test_cache_stats_and_clear(self, backend):
        machine, _domain = cycle_relabel(2)
        engine = engine_for(machine, backend)
        engine.run(monadic_tree(["a"] * 10))
        stats = engine.cache_stats
        assert stats["backend"] == backend
        assert stats["entries"] > 0
        assert stats["misses"] > 0
        engine.clear_cache()
        assert engine.cache_stats["entries"] == 0
        assert engine.memo_size() == 0
        # Still correct after a cache drop.
        assert engine.run(monadic_tree(["a"] * 4)) == engine_for(
            machine, "tables"
        ).run(monadic_tree(["a"] * 4))

    def test_payload_roundtrip_carries_backend(self, backend):
        machine, _domain = cycle_relabel(2)
        compiled = engine_for(machine, "tables").compiled
        payload = shard.pack_engine(compiled, backend)
        engine = shard.unpack_engine(payload)
        assert engine.backend == backend
        source = monadic_tree(["a"] * 12)
        assert engine.run(source) == engine_for(machine, "tables").run(source)


FAB = RankedAlphabet({"f": 2, "a": 0, "b": 0})


def single_state_partial():
    """One state calling every child (codegen's walk path); no rule for ``b``."""
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


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestBatchOutcomes:
    """``run_batch_outcomes`` on forests with repeated roots and failures."""

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_roots_match_one_by_one(self, backend, seed):
        machine = fresh_partial(seed)
        rng = random.Random(seed * 13 + 5)
        distinct = [
            random_tree(machine.input_alphabet, max_height=5, rng=rng)
            for _ in range(25)
        ]
        forest = distinct * 3
        rng.shuffle(forest)
        outcomes = engine_for(machine, backend).run_batch_outcomes(forest)
        expected = interpreter_outcomes(fresh_partial(seed), forest)
        assert comparable(outcomes) == expected
        assert any(isinstance(item, tuple) for item in expected)

    def test_single_state_walk_reports_failures(self, backend):
        machine = single_state_partial()
        forest = fab_forest(1)
        outcomes = engine_for(machine, backend).run_batch_outcomes(forest)
        expected = interpreter_outcomes(single_state_partial(), forest)
        assert comparable(outcomes) == expected
        assert "no rule for state 'q' on symbol 'b'" in {
            item[1] for item in expected if isinstance(item, tuple)
        }
        assert any(not isinstance(item, tuple) for item in expected)

    def test_warm_batch_answers_from_the_memo(self, backend):
        machine = single_state_partial()
        forest = [source for source in fab_forest(2) if "b" not in str(source)]
        assert forest
        engine = engine_for(machine, backend)
        cold = engine.run_batch(forest)
        misses = engine.cache_stats["misses"]
        hits = engine.cache_stats["hits"]
        assert engine.run_batch(forest) == cold
        assert engine.cache_stats["misses"] == misses
        assert engine.cache_stats["hits"] >= hits + len(forest)
        assert cold == [single_state_partial().apply(s) for s in forest]

    def test_composite_axiom_reports_first_failing_call(self, backend):
        machine = two_call_axiom()
        rng = random.Random(3)
        c = Tree("c", ())
        forest = [
            random_tree(machine.input_alphabet, max_height=3, rng=rng)
            for _ in range(30)
        ]
        forest += [c, Tree("f", (c, c)), Tree("a", ()), Tree("b", ())] * 2
        outcomes = engine_for(machine, backend).run_batch_outcomes(forest)
        expected = interpreter_outcomes(two_call_axiom(), forest)
        assert comparable(outcomes) == expected
        a = Tree("a", ())
        assert outcomes[-7] == Tree(
            "g", (Tree("f", (c, c)), Tree("f", (a, a)))
        )
        # Both calls fail on f(a, b); the axiom's left call is reported.
        with pytest.raises(UndefinedTransductionError) as seen:
            engine_for(machine, backend).run(Tree("f", (a, Tree("b", ()))))
        assert str(seen.value) == "no rule for state 'q' on symbol 'b'"


FGAZ = RankedAlphabet({"f": 2, "g": 1, "a": 0, "z": 0})
FGA = RankedAlphabet({"f": 2, "g": 1, "a": 0})


def one_state_without_z():
    """Non-deleting, one state (codegen's walk path); no rule for ``z``."""
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


@pytest.mark.parametrize("backend", ALL_BACKENDS)
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
    def test_distinct_forests_stay_bounded_and_exact(self, backend, make):
        engine = engine_for(make(), backend)
        hits = misses = 0
        for forest in distinct_rounds(12, seed=17):
            outcomes = engine.run_batch_outcomes(forest)
            expected = interpreter_outcomes(make(), forest)
            assert comparable(outcomes) == expected
            assert sum(isinstance(item, tuple) for item in expected) == 1
            # This batch's demand is at most what a cold engine memoizes.
            alone = get_backend(backend)(engine.compiled)
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

    def test_eval_state_right_after_an_eviction(self, backend):
        engine = engine_for(two_states_without_z(), backend)
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


class TestSharedEngineAcrossThreads:
    """Threads sharing one engine while its bound keeps firing: an
    eviction must never land between one thread's sweep and its replay."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_concurrent_batches_with_evictions_stay_exact(
        self, backend, monkeypatch
    ):
        monkeypatch.setattr(execute, "MEMO_LIMIT", 16)
        engine = engine_for(two_states_without_z(), backend)
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


class TestEngineSet:
    def test_backends_share_one_compile(self):
        machine, _domain = cycle_relabel(2)
        engines = [engine_for(machine, name) for name in ALL_BACKENDS]
        assert [engine.backend for engine in engines] == ALL_BACKENDS
        compileds = {id(engine.compiled) for engine in engines}
        assert len(compileds) == 1
        assert isinstance(machine._engine, EngineSet)

    def test_machine_with_live_engines_pickles(self):
        machine, _domain = random_total_dtop(num_states=3, seed=2)
        source = random_tree(
            machine.input_alphabet, max_height=5, rng=random.Random(2)
        )
        expected = {
            name: engine_for(machine, name).run(source)
            for name in ALL_BACKENDS
        }
        clone = pickle.loads(pickle.dumps(machine))
        assert clone._engine.engines == {}  # caches rebuild lazily
        for name in ALL_BACKENDS:
            assert engine_for(clone, name).run(source) is expected[name]

    def test_clear_caches_drops_every_backend(self):
        machine, _domain = cycle_relabel(2)
        source = monadic_tree(["a"] * 10)
        engines = [engine_for(machine, name) for name in ALL_BACKENDS]
        for engine in engines:
            engine.run(source)
            assert engine.memo_size() > 0
        machine.clear_caches()
        for engine in engines:
            assert engine.memo_size() == 0

    def test_concurrent_first_use_compiles_once(self, monkeypatch):
        from repro.engine import execute

        machine, _domain = random_total_dtop(num_states=4, seed=3)
        calls = []
        real_compile = execute.compile_dtop

        def counting_compile(transducer):
            calls.append(threading.get_ident())
            return real_compile(transducer)

        monkeypatch.setattr(execute, "compile_dtop", counting_compile)
        workers = 8
        barrier = threading.Barrier(workers)
        failures = []

        def hammer(index):
            backend = ALL_BACKENDS[index % len(ALL_BACKENDS)]
            barrier.wait()
            try:
                engine_for(machine, backend)
            except Exception as error:  # pragma: no cover - diagnostic
                failures.append(error)

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert len(calls) == 1
        # Every backend engine exists and shares the single compile.
        assert set(machine._engine.engines) == set(ALL_BACKENDS)


class TestProcessWideStats:
    def test_note_batch_surfaces_in_api_cache_stats(self):
        reset_backend_stats()
        machine, _domain = cycle_relabel(2)
        source = monadic_tree(["a"] * 10)
        for backend in ALL_BACKENDS:
            api.run(machine, source, backend=backend)
        stats = backend_stats()
        for backend in ALL_BACKENDS:
            assert stats[backend]["batches"] >= 1
            assert stats[backend]["hits"] + stats[backend]["misses"] > 0
        assert api.cache_stats()["backends"] == backend_stats()
        api.clear_caches()
        assert backend_stats() == {}

    def test_note_batch_accumulates_and_snapshots_are_copies(self):
        reset_backend_stats()
        note_batch("tables", 3, 1)
        note_batch("tables", 2, 4)
        note_batch("codegen", 0, 5)
        snapshot = backend_stats()
        assert snapshot == {
            "tables": {"batches": 2, "hits": 5, "misses": 5},
            "codegen": {"batches": 1, "hits": 0, "misses": 5},
        }
        snapshot["tables"]["hits"] = 99
        assert backend_stats()["tables"]["hits"] == 5
        reset_backend_stats()
        assert backend_stats() == {}


class TestApiBackendArgument:
    def test_run_and_batches_accept_backend(self):
        machine, _domain = cycle_relabel(2)
        source = monadic_tree(["a"] * 8)
        expected = api.run(machine, source)
        for backend in ALL_BACKENDS:
            assert api.run(machine, source, backend=backend) == expected
            assert api.run_batch(machine, [source], backend=backend) == [
                expected
            ]
            assert api.try_run_batch(machine, [source], backend=backend) == [
                expected
            ]

    def test_unknown_backend_raises_before_running(self):
        machine, _domain = cycle_relabel(2)
        with pytest.raises(BackendError):
            api.run(machine, monadic_tree(["a"]), backend="nope")
