"""Tests for witness pairs and distinguishing inputs."""

import pytest

from repro.learning.distinguish import (
    distinguishing_inputs,
    root_realizers,
    witness_pairs,
)
from repro.transducers.minimize import canonicalize
from repro.workloads.families import cycle_relabel, rotate_lists
from repro.workloads.flip import flip_domain, flip_transducer


@pytest.fixture(scope="module")
def flip_canonical():
    return canonicalize(flip_transducer(), flip_domain())


class TestRootRealizers:
    def test_every_state_realizes_two_roots(self, flip_canonical):
        realizers = root_realizers(flip_canonical)
        for state, by_root in realizers.items():
            assert len(by_root) >= 2, state

    def test_realizers_actually_realize(self, flip_canonical):
        realizers = root_realizers(flip_canonical)
        for state, by_root in realizers.items():
            for root, source in by_root.items():
                output = flip_canonical.dtop.eval_state(state, source)
                assert output.label == root


class TestWitnessPairs:
    def test_outputs_differ_at_root(self, flip_canonical):
        for state, (s1, s2) in witness_pairs(flip_canonical).items():
            o1 = flip_canonical.dtop.eval_state(state, s1)
            o2 = flip_canonical.dtop.eval_state(state, s2)
            assert o1.label != o2.label

    def test_witnesses_typed_by_domain(self, flip_canonical):
        for state, pair in witness_pairs(flip_canonical).items():
            dstate = flip_canonical.state_domain[state]
            for source in pair:
                assert flip_canonical.domain.accepts_from(dstate, source)


class TestDistinguishingInputs:
    def test_flip_same_domain_pairs_separated(self, flip_canonical):
        separators = distinguishing_inputs(flip_canonical)
        state_domain = flip_canonical.state_domain
        states = sorted(flip_canonical.dtop.states)
        for i, a in enumerate(states):
            for b in states[i + 1 :]:
                if state_domain[a] != state_domain[b]:
                    continue
                source = separators[(a, b)]
                out_a = flip_canonical.dtop.eval_state(a, source)
                out_b = flip_canonical.dtop.eval_state(b, source)
                assert out_a != out_b, (a, b)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cycle_family_separated(self, n):
        target, domain = cycle_relabel(n)
        canonical = canonicalize(target, domain)
        separators = distinguishing_inputs(canonical)
        states = sorted(canonical.dtop.states)
        # All states share the (universal word) domain: all pairs present.
        for i, a in enumerate(states):
            for b in states[i + 1 :]:
                source = separators[(a, b)]
                assert canonical.dtop.eval_state(
                    a, source
                ) != canonical.dtop.eval_state(b, source)

    def test_deep_separation_through_dependencies(self):
        """rotate_lists(3) needs the fixpoint (rules diverge only deeper)."""
        target, domain = rotate_lists(3)
        canonical = canonicalize(target, domain)
        separators = distinguishing_inputs(canonical)
        state_domain = canonical.state_domain
        states = sorted(canonical.dtop.states)
        for i, a in enumerate(states):
            for b in states[i + 1 :]:
                if state_domain[a] != state_domain[b]:
                    continue
                assert (a, b) in separators
