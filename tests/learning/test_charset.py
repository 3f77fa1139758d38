"""Tests for characteristic-sample generation (Section 8, Prop. 34)."""

import pytest

from repro.engine import tables_for
from repro.learning.charset import characteristic_sample
from repro.learning.rpni import rpni_dtop
from repro.learning.sample import Sample
from repro.transducers.minimize import canonicalize
from repro.trees.lcp import BOTTOM_SYMBOL
from repro.workloads.families import cycle_relabel, rotate_lists
from repro.workloads.flip import flip_domain, flip_transducer

from tests.learning.reference_sample import ReferenceSample


@pytest.fixture(scope="module")
def flip_canonical():
    return canonicalize(flip_transducer(), flip_domain())


@pytest.fixture(scope="module")
def flip_charset(flip_canonical):
    return characteristic_sample(flip_canonical)


class TestConsistency:
    def test_sample_subset_of_translation(self, flip_canonical, flip_charset):
        """(C): every pair is produced by the target."""
        for source, target in flip_charset:
            assert flip_canonical.dtop.apply(source) == target

    def test_inputs_in_domain(self, flip_canonical, flip_charset):
        for source, _ in flip_charset:
            assert flip_canonical.domain.accepts(source)


class TestAxiomCondition:
    def test_out_s_epsilon_matches_target(self, flip_canonical, flip_charset):
        """(A): out_S(ε) equals the canonical axiom shape."""
        for ops in (ReferenceSample(flip_charset), tables_for(flip_charset)):
            out = ops.out(())
            assert out.label == "root"
            assert out.children[0].label is BOTTOM_SYMBOL
            assert out.children[1].label is BOTTOM_SYMBOL


class TestLearnability:
    def test_flip_learned_exactly(self, flip_canonical, flip_charset):
        learned = rpni_dtop(flip_charset, flip_canonical.domain)
        assert canonicalize(
            learned.dtop, flip_canonical.domain
        ).same_translation(flip_canonical)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_cycle_relabel_family(self, n):
        target, domain = cycle_relabel(n)
        canonical = canonicalize(target, domain)
        assert canonical.num_states == n
        sample = characteristic_sample(canonical)
        learned = rpni_dtop(sample, canonical.domain)
        assert canonicalize(learned.dtop, canonical.domain).same_translation(
            canonical
        )

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_rotate_lists_family(self, k):
        target, domain = rotate_lists(k)
        canonical = canonicalize(target, domain)
        sample = characteristic_sample(canonical)
        learned = rpni_dtop(sample, canonical.domain)
        assert canonicalize(learned.dtop, canonical.domain).same_translation(
            canonical
        )


class TestSampleSize:
    def test_polynomial_growth(self):
        """Prop. 34: cardinality polynomial in |min(τ)| — here ~linear."""
        sizes = []
        for n in [2, 4, 8]:
            target, domain = cycle_relabel(n)
            canonical = canonicalize(target, domain)
            sample = characteristic_sample(canonical)
            sizes.append(len(sample))
        # Growth should be at most quadratic in n here.
        assert sizes[2] <= sizes[0] * 16

    def test_flip_sample_is_small(self, flip_charset):
        assert len(flip_charset) <= 8


class TestCopyingTarget:
    def test_exp_full_binary_gold_loop(self):
        """The copying transducer (monadic → full binary, Section 1's
        exponential example) survives the full Gold round trip."""
        from repro.workloads.families import exp_full_binary

        target, domain = exp_full_binary()
        canonical = canonicalize(target, domain)
        sample = characteristic_sample(canonical)
        learned = rpni_dtop(sample, canonical.domain)
        assert canonicalize(learned.dtop, canonical.domain).same_translation(
            canonical
        )
        assert learned.num_states == 1
