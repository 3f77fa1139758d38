"""Tests for the RPNI_dtop learning algorithm (Figure 1, Theorem 38)."""

import pytest

from repro.errors import (
    InconsistentSampleError,
    InsufficientSampleError,
)
from repro.learning.charset import characteristic_sample
from repro.learning.rpni import rpni_dtop
from repro.learning.sample import Sample
from repro.transducers.minimize import canonicalize
from repro.trees.tree import parse_term
from repro.workloads.flip import (
    flip_domain,
    flip_input,
    flip_output,
    flip_paper_sample,
    flip_transducer,
)


class TestFlipFromPaperSample:
    """Example 7 end to end, from the paper's own 4 examples."""

    @pytest.fixture
    def learned(self):
        return rpni_dtop(Sample(flip_paper_sample()), flip_domain())

    def test_four_states(self, learned):
        assert learned.num_states == 4

    def test_rules_match_mflip(self, learned):
        canonical = canonicalize(learned.dtop, flip_domain())
        target = canonicalize(flip_transducer(), flip_domain())
        assert canonical.same_translation(target)

    def test_generalizes(self, learned):
        for n, m in [(4, 0), (0, 4), (3, 5)]:
            assert learned.dtop.apply(flip_input(n, m)) == flip_output(n, m)

    def test_trace_follows_example7(self, learned):
        """Promotions: p1, p2, p4, p3; then two merges (Example 7)."""
        kinds = [line.split()[0] for line in learned.trace]
        assert kinds == [
            "promote",
            "promote",
            "promote",
            "promote",
            "merge",
            "merge",
        ]
        # Third promotion is p4 = ((root,1),(root,2)) — before p3.
        assert "(('root', 1),), (('root', 2),)" in learned.trace[2]

    def test_state_paths_are_io_paths(self, learned):
        assert set(learned.state_paths.values()) == {
            ((), (("root", 1),)),
            ((), (("root", 2),)),
            ((("root", 1),), (("root", 2),)),
            ((("root", 2),), (("root", 1),)),
        }


class TestFailureModes:
    def test_empty_sample(self):
        with pytest.raises(InsufficientSampleError):
            rpni_dtop(Sample([]), flip_domain())

    def test_input_outside_domain(self):
        sample = Sample([(parse_term("#"), parse_term("#"))])
        with pytest.raises(InconsistentSampleError):
            rpni_dtop(sample, flip_domain())

    def test_insufficient_sample_gives_consistent_hypothesis(self):
        """Gold-style: too little data yields a wrong-but-consistent machine.

        A single example fully determines out_S(ε), so the learner returns
        the constant transducer mapping everything to that output — no
        error, but also no generalization.  This is the expected behaviour
        outside the characteristic regime.
        """
        sample = Sample([(flip_input(0, 0), flip_output(0, 0))])
        learned = rpni_dtop(sample, flip_domain())
        assert learned.num_states == 0
        assert learned.dtop.apply(flip_input(0, 0)) == flip_output(0, 0)

    def test_ambiguous_alignment_raises(self):
        """Condition (O) violation: two variables both look functional."""
        from repro.automata.dtta import DTTA
        from repro.trees.alphabet import RankedAlphabet

        alphabet = RankedAlphabet({"root": 2, "a": 2, "#": 0})
        domain = DTTA(
            alphabet,
            "r",
            {
                ("r", "root"): ("l", "l"),
                ("l", "a"): ("e", "l"),
                ("l", "#"): (),
                ("e", "#"): (),
            },
        )
        # Target copies child 1; but in every example child1 = child2, so
        # the alignment at the root cannot be resolved.
        sample = Sample(
            [
                (parse_term("root(#, #)"), parse_term("#")),
                (parse_term("root(a(#, #), a(#, #))"), parse_term("a(#, #)")),
            ]
        )
        with pytest.raises(InsufficientSampleError):
            rpni_dtop(sample, domain)


class TestSupersetLearning:
    def test_superset_of_characteristic_sample_still_works(self):
        canonical = canonicalize(flip_transducer(), flip_domain())
        sample = characteristic_sample(canonical)
        extra = [
            (flip_input(3, 3), flip_output(3, 3)),
            (flip_input(4, 1), flip_output(4, 1)),
            (flip_input(1, 4), flip_output(1, 4)),
        ]
        learned = rpni_dtop(sample.extended_with(extra), flip_domain())
        assert canonicalize(learned.dtop, flip_domain()).same_translation(
            canonical
        )


class TestConstantTranslation:
    def test_no_states_needed(self):
        from repro.workloads.constants import constant_m2

        target = constant_m2()
        canonical = canonicalize(target)
        sample = characteristic_sample(canonical)
        learned = rpni_dtop(sample, canonical.domain)
        assert learned.num_states == 0
        assert learned.dtop.axiom == parse_term("b")


class TestDeletion:
    def test_learn_deleting_transducer(self):
        """Deletion needs the domain automaton (Section 6 discussion)."""
        from repro.trees.alphabet import RankedAlphabet
        from repro.transducers.dtop import DTOP
        from repro.transducers.rhs import call, rhs_tree

        alphabet = RankedAlphabet({"f": 2, "a": 0, "b": 0, "c": 0})
        out = RankedAlphabet({"a": 0, "b": 0})
        target = DTOP(
            alphabet,
            out,
            call("q", 0),
            {
                ("q", "f"): rhs_tree(("q", 2)),
                ("q", "a"): rhs_tree("a"),
                ("q", "b"): rhs_tree("b"),
            },
        )
        from repro.workloads.compat import example6_domain

        canonical = canonicalize(target, example6_domain())
        sample = characteristic_sample(canonical)
        learned = rpni_dtop(sample, canonical.domain)
        assert canonicalize(learned.dtop, canonical.domain).same_translation(
            canonical
        )
        assert learned.dtop.apply(parse_term("f(c, a)")) == parse_term("a")
