"""Tests for DTOP construction and evaluation (Definition 1)."""

import pytest

from repro.engine import engine_for
from repro.errors import TransducerError, UndefinedTransductionError
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree, parse_term
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import call, rhs_tree
from repro.workloads.constants import constant_m1, constant_m2, constant_m3
from repro.workloads.families import exp_full_binary
from repro.workloads.flip import flip_input, flip_output, flip_transducer

from tests.conftest import dag_node_count


class TestValidation:
    def test_axiom_must_use_x0(self):
        alphabet = RankedAlphabet({"a": 0})
        with pytest.raises(TransducerError):
            DTOP(alphabet, alphabet, call("q", 1), {})

    def test_rule_variable_bound_by_rank(self):
        alphabet = RankedAlphabet({"g": 1, "a": 0})
        with pytest.raises(TransducerError):
            DTOP(
                alphabet,
                alphabet,
                call("q", 0),
                {("q", "g"): rhs_tree(("q", 2))},
            )

    def test_output_arity_checked(self):
        f_in = RankedAlphabet({"a": 0})
        g_out = RankedAlphabet({"h": 2})
        with pytest.raises(TransducerError):
            DTOP(f_in, g_out, Tree("h", (Tree("h", ()),)), {})

    def test_unknown_output_symbol(self):
        alphabet = RankedAlphabet({"a": 0})
        with pytest.raises(TransducerError):
            DTOP(alphabet, alphabet, Tree("zzz", ()), {})

    def test_states_collected(self):
        transducer = flip_transducer()
        assert transducer.states == {"q1", "q2", "q3", "q4"}
        assert len(transducer.rules) == 6


class TestEvaluation:
    def test_flip_on_paper_input(self):
        transducer = flip_transducer()
        got = transducer.apply(parse_term("root(a(#, a(#, #)), b(#, #))"))
        assert got == parse_term("root(b(#, #), a(#, a(#, #)))")

    @pytest.mark.parametrize("n_as,n_bs", [(0, 0), (1, 0), (0, 1), (3, 2)])
    def test_flip_family(self, n_as, n_bs):
        transducer = flip_transducer()
        assert transducer.apply(flip_input(n_as, n_bs)) == flip_output(n_as, n_bs)

    def test_undefined_outside_domain(self):
        transducer = flip_transducer()
        with pytest.raises(UndefinedTransductionError):
            transducer.apply(parse_term("a(#, #)"))

    def test_try_apply(self):
        transducer = flip_transducer()
        assert transducer.try_apply(parse_term("#")) is None
        assert transducer.try_apply(flip_input(1, 1)) == flip_output(1, 1)

    def test_defined_on(self):
        transducer = flip_transducer()
        assert transducer.defined_on(flip_input(2, 2))
        assert not transducer.defined_on(parse_term("#"))

    def test_constant_transducers_agree(self):
        """Examples 1–2: M1, M2, M3 all define the constant translation."""
        tree = parse_term("f(f(a, a), a)")
        assert constant_m1().apply(tree) == parse_term("b")
        assert constant_m2().apply(tree) == parse_term("b")
        assert constant_m3().apply(tree) == parse_term("b")

    def test_eval_state(self):
        transducer = flip_transducer()
        from repro.workloads.flip import b_list

        got = transducer.eval_state("q3", b_list(2))
        assert got == b_list(2)


class TestCopying:
    def test_copying_transducer(self):
        """A DTOP may use a variable twice (Section 1: copying)."""
        transducer, _ = exp_full_binary()
        from repro.trees.generate import monadic_tree

        got = transducer.apply(monadic_tree(["a", "a"], end="e"))
        assert got == parse_term("f(f(l, l), f(l, l))")

    def test_deleting_transducer(self):
        """And may drop variables entirely (deletion)."""
        alphabet = RankedAlphabet({"f": 2, "a": 0, "b": 0})
        transducer = DTOP(
            alphabet,
            alphabet,
            call("q", 0),
            {
                ("q", "f"): rhs_tree(("q", 2)),
                ("q", "a"): rhs_tree("a"),
                ("q", "b"): rhs_tree("b"),
            },
        )
        assert transducer.apply(parse_term("f(a, b)")) == parse_term("b")


class TestDagEvaluation:
    def test_matches_engine_evaluation(self):
        transducer = flip_transducer()
        source = flip_input(2, 3)
        assert engine_for(transducer).run(source) is transducer.apply(source)

    def test_exponential_output_linear_dag(self):
        """Section 1: height-n monadic input → full binary tree, DAG linear."""
        transducer, _ = exp_full_binary()
        from repro.trees.generate import monadic_tree

        source = monadic_tree(["a"] * 40, end="e")
        output = transducer.apply(source)
        assert dag_node_count(output) == 41
        assert output.size == 2 ** 41 - 1
        assert engine_for(transducer).run(source) is output

    def test_undefined_raises(self):
        transducer = flip_transducer()
        with pytest.raises(UndefinedTransductionError):
            engine_for(transducer).run(parse_term("#"))


class TestStructure:
    def test_rename(self):
        transducer = flip_transducer().rename({"q1": "left", "q2": "right"})
        assert "left" in transducer.states
        assert transducer.apply(flip_input(1, 1)) == flip_output(1, 1)

    def test_describe_contains_rules(self):
        text = flip_transducer().describe()
        assert "axiom" in text
        assert "q3(b(x1, x2))" in text

    def test_size(self):
        assert flip_transducer().size > 0
