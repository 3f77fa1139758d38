"""Unit tests for the compiler: flat tables and instruction templates."""

import pytest

from repro.engine import (
    artifact_stats,
    compile_dtop,
    compile_dtta,
    engine_for,
    reset_artifact_stats,
)
from repro.engine.compile import OP_CALL, OP_CONST, OP_MAKE
from repro.errors import UndefinedTransductionError
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree, leaf, parse_term, tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import rhs_tree
from repro.workloads.families import cycle_relabel, exp_full_binary

ALPHABET = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})


def flip():
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


class TestCompiledTables:
    def test_ids_are_dense_and_deterministic(self):
        compiled_1 = compile_dtop(flip())
        compiled_2 = compile_dtop(flip())
        assert compiled_1.state_names == compiled_2.state_names
        assert compiled_1.symbol_names == compiled_2.symbol_names
        assert compiled_1.num_states == 1
        assert compiled_1.num_symbols == 4
        assert sorted(compiled_1.state_ids.values()) == [0]
        assert sorted(compiled_1.symbol_ids.values()) == [0, 1, 2, 3]

    def test_dispatch_array_covers_all_rules(self):
        compiled = compile_dtop(flip())
        defined = [index for index in compiled.rule_of if index >= 0]
        assert len(defined) == 4
        assert compiled.rule_index(0, "f") >= 0
        assert compiled.rule_index(0, "unknown-symbol") == -1

    def test_ground_rhs_collapses_to_one_const(self):
        compiled = compile_dtop(flip())
        rule = compiled.rule_index(compiled.state_ids["q"], "a")
        template = compiled.rule_templates[rule]
        assert template == ((OP_CONST, leaf("a")),)
        assert compiled.rule_calls[rule] == ()

    def test_mixed_rhs_template_is_postorder(self):
        compiled = compile_dtop(flip())
        rule = compiled.rule_index(compiled.state_ids["q"], "f")
        opcodes = [instruction[0] for instruction in compiled.rule_templates[rule]]
        # f(⟨q,x2⟩, ⟨q,x1⟩): two call pushes, then one make.
        assert opcodes == [OP_CALL, OP_CALL, OP_MAKE]
        assert compiled.rule_calls[rule] == ((0, 2), (0, 1))

    def test_ground_subtree_inside_rhs_is_const(self):
        dtop = DTOP(
            RankedAlphabet({"g": 1, "a": 0}),
            RankedAlphabet({"h": 2, "k": 2, "c": 0, "d": 0}),
            rhs_tree(("q", 0)),
            {
                ("q", "g"): rhs_tree(("h", ("k", "c", "d"), ("q", 1))),
                ("q", "a"): rhs_tree("c"),
            },
        )
        compiled = compile_dtop(dtop)
        rule = compiled.rule_index(compiled.state_ids["q"], "g")
        template = compiled.rule_templates[rule]
        assert (OP_CONST, parse_term("k(c, d)")) in template
        # The call-free subtree is not expanded into MAKE instructions.
        assert sum(1 for ins in template if ins[0] == OP_MAKE) == 1

    def test_shared_rhs_compiles_once(self):
        shared = rhs_tree(("g", ("q", 1)))
        dtop = DTOP(
            RankedAlphabet({"g": 1, "u": 1, "a": 0}),
            RankedAlphabet({"g": 1, "a": 0}),
            rhs_tree(("q", 0)),
            {
                ("q", "g"): shared,
                ("q", "u"): shared,
                ("q", "a"): rhs_tree("a"),
            },
        )
        compiled = compile_dtop(dtop)
        assert compiled.rule_index(0, "g") == compiled.rule_index(0, "u")

    def test_axiom_template_uses_var_zero(self):
        compiled = compile_dtop(flip())
        assert compiled.axiom_calls == ((0, 0),)
        assert compiled.axiom_template == ((OP_CALL, 0, 0),)


class TestCompiledDTTA:
    def test_transitions_grouped_by_symbol(self):
        _dtop, domain = cycle_relabel(3)
        compiled = compile_dtta(domain)
        assert compiled.num_states == 1
        a_rows = compiled.by_symbol[compiled.symbol_ids["a"]]
        e_rows = compiled.by_symbol[compiled.symbol_ids["e"]]
        assert a_rows == ((0, (0,)),)
        assert e_rows == ((0, ()),)
        assert compiled.initial_id == 0


class TestEngineCaching:
    def test_engine_for_is_cached_per_instance(self):
        machine = flip()
        assert engine_for(machine) is engine_for(machine)
        assert engine_for(flip()) is not engine_for(machine)

    def test_cache_stats_track_pair_evaluations(self):
        machine, _domain = exp_full_binary()
        engine = engine_for(machine)
        deep = leaf("e")
        for _ in range(20):
            deep = tree("a", deep)
        engine.run(deep)
        # 21 distinct (state, subtree) pairs, shared output structure.
        assert engine.cache_stats["misses"] == 21
        engine.run(deep)
        assert engine.cache_stats["hits"] >= 1

    def test_dtop_clear_caches_clears_engine(self):
        machine = flip()
        engine = engine_for(machine)
        engine.run(parse_term("f(a, b)"))
        assert engine.cache_stats["entries"] > 0
        machine.clear_caches()
        assert engine.cache_stats["entries"] == 0

    def test_rename_clone_gets_fresh_engine(self):
        machine = flip()
        engine_for(machine)
        clone = machine.rename({"q": "p"})
        assert clone._engine is None
        assert str(engine_for(clone).run(parse_term("f(a, b)"))) == "f(b, a)"

    def test_compile_counter_counts_compilations(self):
        machine, _domain = cycle_relabel(3)
        machine.clear_caches()
        reset_artifact_stats()
        engine_for(machine)
        assert artifact_stats()["compiles"] == 1
        engine_for(machine)  # cached EngineSet
        assert artifact_stats()["compiles"] == 1

    def test_switching_backends_never_recompiles(self):
        machine = flip()
        reset_artifact_stats()
        tables = engine_for(machine, "tables")
        codegen = engine_for(machine, "codegen")
        assert tables is not codegen
        assert artifact_stats() == {"compiles": 1, "payload_hits": 0}
        document = parse_term("f(g(a), b)")
        assert str(tables.run(document)) == str(codegen.run(document))

    def test_reset_artifact_stats_zeroes_the_counter(self):
        engine_for(flip())
        assert artifact_stats()["compiles"] >= 1
        reset_artifact_stats()
        assert artifact_stats() == {"compiles": 0, "payload_hits": 0}
        compile_dtop(flip())
        assert artifact_stats()["compiles"] == 1


class TestEngineSemantics:
    def test_matches_interpreter_on_flip(self):
        machine = flip()
        engine = engine_for(machine)
        for text in ["a", "g(a)", "f(a, b)", "f(g(f(a, b)), f(b, a))"]:
            source = parse_term(text)
            assert engine.run(source) == flip().apply(source)

    def test_undefined_error_matches_interpreter(self):
        machine = DTOP(
            ALPHABET,
            ALPHABET,
            rhs_tree(("q", 0)),
            {("q", "g"): rhs_tree(("g", ("q", 1))), ("q", "a"): rhs_tree("a")},
        )
        source = parse_term("g(g(b))")
        with pytest.raises(UndefinedTransductionError) as engine_error:
            engine_for(machine).run(source)
        with pytest.raises(UndefinedTransductionError) as interp_error:
            machine.apply(source)
        assert str(engine_error.value) == str(interp_error.value)

    def test_failures_are_not_cached(self):
        machine = DTOP(
            ALPHABET,
            ALPHABET,
            rhs_tree(("q", 0)),
            {("q", "g"): rhs_tree(("g", ("q", 1))), ("q", "a"): rhs_tree("a")},
        )
        engine = engine_for(machine)
        assert engine.try_run(parse_term("g(b)")) is None
        entries = engine.cache_stats["entries"]
        assert engine.try_run(parse_term("g(b)")) is None
        assert engine.cache_stats["entries"] == entries

    def test_eval_state_matches_interpreter(self):
        machine = flip()
        source = parse_term("f(g(a), b)")
        assert engine_for(machine).eval_state("q", source) == flip().eval_state(
            "q", source
        )

    def test_run_batch_outcomes_mixes_results_and_errors(self):
        machine = DTOP(
            ALPHABET,
            ALPHABET,
            rhs_tree(("q", 0)),
            {("q", "g"): rhs_tree(("g", ("q", 1))), ("q", "a"): rhs_tree("a")},
        )
        outcomes = engine_for(machine).run_batch_outcomes(
            [parse_term("g(a)"), parse_term("g(b)"), parse_term("a")]
        )
        assert str(outcomes[0]) == "g(a)"
        assert isinstance(outcomes[1], UndefinedTransductionError)
        assert str(outcomes[2]) == "a"

    def test_run_batch_raises_first_error_in_input_order(self):
        machine = DTOP(
            ALPHABET,
            ALPHABET,
            rhs_tree(("q", 0)),
            {("q", "g"): rhs_tree(("g", ("q", 1))), ("q", "a"): rhs_tree("a")},
        )
        with pytest.raises(UndefinedTransductionError, match="'b'"):
            engine_for(machine).run_batch(
                [parse_term("a"), parse_term("g(b)"), parse_term("f(a, a)")]
            )

    def test_batch_shares_subtrees_across_members(self):
        machine, _domain = exp_full_binary()
        engine = engine_for(machine)
        chains = []
        node = leaf("e")
        for _ in range(30):
            node = tree("a", node)
            chains.append(node)
        engine.run_batch(chains)
        # 30 overlapping inputs, but only 31 distinct pairs evaluated.
        assert engine.cache_stats["misses"] == 31
