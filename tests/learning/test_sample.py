"""Tests for the Sample data structure and its semantic operations.

The semantic operations (``out_S``, residuals, io-paths) run on both
substrates that answer them: the compiled tables the learner uses
(``tables_for(sample)``) and the interpreted reference
(:class:`tests.learning.reference_sample.ReferenceSample`).  Residual
pair lists and tree-keyed residual maps exist only on the reference.
"""

import pytest

from repro.engine import tables_for
from repro.errors import InconsistentSampleError
from repro.learning.sample import Sample
from repro.trees.lcp import BOTTOM_SYMBOL
from repro.trees.tree import parse_term
from repro.workloads.flip import flip_paper_sample

from tests.learning.reference_sample import ReferenceSample

#: Builders of a query substrate from sample pairs.
SUBSTRATES = {
    "reference": ReferenceSample,
    "tables": lambda pairs: tables_for(Sample(pairs)),
}


@pytest.fixture(params=sorted(SUBSTRATES))
def substrate(request):
    return SUBSTRATES[request.param]


@pytest.fixture
def flip_ops(substrate):
    return substrate(flip_paper_sample())


@pytest.fixture
def flip_sample():
    return Sample(flip_paper_sample())


@pytest.fixture
def flip_reference():
    return ReferenceSample(flip_paper_sample())


class TestConstruction:
    def test_functional_check(self):
        with pytest.raises(InconsistentSampleError):
            Sample(
                [
                    (parse_term("a"), parse_term("a")),
                    (parse_term("a"), parse_term("b")),
                ]
            )

    def test_duplicates_collapse(self):
        sample = Sample(
            [
                (parse_term("a"), parse_term("b")),
                (parse_term("a"), parse_term("b")),
            ]
        )
        assert len(sample) == 1

    def test_output_of(self, flip_sample):
        source = parse_term("root(#, #)")
        assert flip_sample.output_of(source) == parse_term("root(#, #)")
        assert flip_sample.output_of(parse_term("#")) is None

    def test_extended_with(self, flip_sample):
        merged = flip_sample.extended_with(
            [(parse_term("root(#, b(#, #))"), parse_term("root(b(#, #), #)"))]
        )
        assert len(merged) == len(flip_sample)

    def test_total_nodes(self, flip_sample):
        assert flip_sample.total_nodes == sum(
            s.size + t.size for s, t in flip_paper_sample()
        )


class TestOut:
    def test_out_epsilon(self, flip_ops):
        """out_S(ε) = root(⊥, ⊥) for the flip sample."""
        out = flip_ops.out(())
        assert out.label == "root"
        assert out.children[0].label is BOTTOM_SYMBOL
        assert out.children[1].label is BOTTOM_SYMBOL

    def test_out_no_tree_contains_path(self, flip_ops):
        assert flip_ops.out((("zzz", 1),)) is None

    def test_out_deeper(self, flip_ops):
        """Trees with u = (root,1)·a all output a(#, ⊥) at (root,2)."""
        out = flip_ops.out((("root", 1), ("a", 2)))
        assert out is not None

    def test_out_npath(self, flip_ops):
        out = flip_ops.out_npath((), "root")
        assert out == flip_ops.out(())
        assert flip_ops.out_npath((("root", 1),), "a") is not None
        assert flip_ops.out_npath((("root", 1),), "b") is None


class TestResidual:
    def test_residual_of_root_pair(self, flip_reference):
        """Example 7: ((root,1),(root,1))⁻¹S is not functional."""
        residual = flip_reference.residual(((("root", 1),), (("root", 1),)))
        inputs = [s for s, _ in residual]
        assert parse_term("#") in inputs

    def test_root_pair_not_functional(self, flip_ops):
        assert not flip_ops.residual_functional(((("root", 1),), (("root", 1),)))

    def test_correct_alignment_functional(self, flip_ops):
        """((root,2),(root,1))⁻¹S is functional (reaches q3)."""
        assert flip_ops.residual_functional(
            ((("root", 2),), (("root", 1),))
        )

    def test_residual_map(self, flip_reference):
        mapping = flip_reference.residual_map(((("root", 2),), (("root", 1),)))
        assert mapping is not None
        assert mapping[parse_term("#")] == parse_term("#")
        assert mapping[parse_term("b(#, #)")] == parse_term("b(#, #)")

    def test_residual_excludes_missing_v(self):
        sample = ReferenceSample([(parse_term("f(a, a)"), parse_term("b"))])
        residual = sample.residual(((("f", 1),), (("g", 1),)))
        assert residual == ()
        assert tables_for(Sample(sample.pairs)).residual_uid_map(
            ((("f", 1),), (("g", 1),))
        ) == {}


class TestIoPaths:
    def test_axiom_io_paths(self, flip_ops):
        assert flip_ops.is_io_path(((), (("root", 1),)))
        assert flip_ops.is_io_path(((), (("root", 2),)))

    def test_non_bottom_position_rejected(self, flip_ops):
        assert not flip_ops.is_io_path(((), ()))

    def test_wrong_alignment_rejected(self, flip_ops):
        assert not flip_ops.is_io_path(((("root", 1),), (("root", 1),)))

    def test_paper_io_paths(self, flip_ops):
        """The 4 io-path representatives listed in the Introduction."""
        assert flip_ops.is_io_path(((("root", 2),), (("root", 1),)))
        assert flip_ops.is_io_path(((("root", 1),), (("root", 2),)))


class TestOutWithUnrankedLabels:
    """out_S must stay exact when a label occurs at several arities.

    The npath-sharing optimization (out_S(u·(f,i)) computed once per
    u·f) only applies when every pair with an f-node at u contains the
    queried child index; these samples violate rankedness on purpose.
    """

    def test_out_respects_child_index(self, substrate):
        sample = substrate(
            [
                (parse_term("r(f(a))"), parse_term("x")),
                (parse_term("r(f(a, b))"), parse_term("y")),
            ]
        )
        # Only the second input contains the path (f, 2).
        assert sample.out((("r", 1), ("f", 2))) == parse_term("y")

    def test_out_is_order_independent(self, substrate):
        u = (("r", 1), ("f", 2))
        forward = substrate(
            [
                (parse_term("r(f(a))"), parse_term("x")),
                (parse_term("r(f(a, b))"), parse_term("y")),
            ]
        )
        backward = substrate(
            [
                (parse_term("r(f(a, b))"), parse_term("y")),
                (parse_term("r(f(a))"), parse_term("x")),
            ]
        )
        assert forward.out(u) == backward.out(u) == parse_term("y")

    def test_out_none_when_index_absent_everywhere(self, substrate):
        sample = substrate([(parse_term("r(f(a))"), parse_term("x"))])
        assert sample.out((("r", 1), ("f", 2))) is None
