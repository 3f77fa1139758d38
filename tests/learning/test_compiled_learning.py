"""Compiled learning against the interpreted reference.

``rpni_dtop`` runs on the compiled sample tables with signature-indexed
merging; :func:`tests.learning.reference_sample.rpni_reference` runs the
same loop on the interpreted substrate with the pairwise merge scan.
These tests pin the contract that both make byte-identical decisions:
same learned transducer, same state-io-paths, same trace, and the same
errors (type, message, and structured fields) on insufficient or
inconsistent samples.

Also covered: the incremental-sample contract of the active learner
(indexes are extended, never rebuilt, across counterexample rounds —
proved by the ``tables_*`` counters in ``Sample.cache_stats``) and the
compiled worklist fixpoint of the earliest normal form against the
round-based Kleene reference.
"""

import gc
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.dtta import DTTA
from repro.automata.ops import enumerate_language
from repro.engine import engine_for, tables_for
from repro.errors import InsufficientSampleError, LearningError
from repro.learning.active import learn_actively
from repro.learning.charset import characteristic_sample
from repro.learning.rpni import rpni_dtop
from repro.learning.sample import Sample
from repro.transducers.earliest import out_table
from repro.transducers.minimize import canonicalize
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import intern_stats, parse_term
from repro.workloads.families import cycle_relabel, random_total_dtop, rotate_lists

from tests.learning.reference_sample import out_table_reference, rpni_reference


def _learned_fingerprint(learned):
    return (
        learned.dtop.axiom,
        dict(learned.dtop.rules),
        learned.state_paths,
        learned.trace,
    )


@settings(max_examples=25, deadline=None)
@given(
    num_states=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_compiled_learning_identical_on_random_targets(num_states, seed):
    target, domain = random_total_dtop(num_states, seed)
    canonical = canonicalize(target, domain)
    pairs = list(characteristic_sample(canonical))
    compiled = rpni_dtop(Sample(pairs), canonical.domain)
    interpreted = rpni_reference(Sample(pairs), canonical.domain)
    assert _learned_fingerprint(compiled) == _learned_fingerprint(interpreted)
    assert "scan_probes" in interpreted.stats["merge_index"]
    # One lookup per border state; a constant-axiom target has none.
    assert compiled.stats["merge_index"]["lookups"] == compiled.stats[
        "ok_states"
    ] + compiled.stats["merges"]


@settings(max_examples=25, deadline=None)
@given(
    num_states=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
    cut=st.integers(min_value=1, max_value=10_000),
)
def test_error_parity_on_truncated_samples(num_states, seed, cut):
    """Dropping sample pairs must fail identically on both substrates."""
    target, domain = random_total_dtop(num_states, seed)
    canonical = canonicalize(target, domain)
    pairs = list(characteristic_sample(canonical))
    truncated = pairs[: 1 + cut % len(pairs)]

    def outcome(learn):
        try:
            learned = learn(Sample(truncated), canonical.domain)
        except LearningError as error:
            kind = getattr(error, "kind", None)
            return (type(error).__name__, str(error), kind)
        return _learned_fingerprint(learned)

    assert outcome(rpni_dtop) == outcome(rpni_reference)


#: Six pairs of the characteristic sample of
#: ``canonicalize(*random_total_dtop(4, 17))``, a random sub-sample that
#: violates condition (N): a border state merges with two OK states.
AMBIGUOUS_PAIRS = [
    ("g(f(g(f(c, c)), c))", "h(h(u(e), d), u(u(d)))"),
    ("g(c)", "u(d)"),
    ("g(f(g(g(f(c, c))), c))", "h(h(h(e, e), d), h(h(u(e), d), u(u(d))))"),
    ("f(c, c)", "u(e)"),
    ("g(g(c))", "u(h(e, e))"),
    ("c", "e"),
]


def test_merge_ambiguity_fails_identically_on_both_substrates():
    alphabet = RankedAlphabet({"c": 0, "f": 2, "g": 1})
    universal = DTTA(alphabet, 0, {(0, "c"): (), (0, "f"): (0, 0), (0, "g"): (0,)})
    pairs = [(parse_term(i), parse_term(o)) for i, o in AMBIGUOUS_PAIRS]
    failures = []
    for learn in (rpni_dtop, rpni_reference):
        with pytest.raises(InsufficientSampleError) as caught:
            learn(Sample(pairs), universal)
        error = caught.value
        failures.append(
            (type(error), str(error), error.kind, error.u, error.v, error.candidates)
        )
    assert failures[0][2] == "merge-ambiguity"
    assert len(failures[0][5]) >= 2
    assert failures[0] == failures[1]


@pytest.mark.parametrize(
    "family,parameter", [(cycle_relabel, 8), (rotate_lists, 4)]
)
def test_compiled_learning_identical_on_families(family, parameter):
    target, domain = family(parameter)
    canonical = canonicalize(target, domain)
    pairs = list(characteristic_sample(canonical))
    compiled = rpni_dtop(Sample(pairs), canonical.domain)
    interpreted = rpni_reference(Sample(pairs), canonical.domain)
    assert _learned_fingerprint(compiled) == _learned_fingerprint(interpreted)


@settings(max_examples=20, deadline=None)
@given(
    num_states=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
    cut=st.integers(min_value=1, max_value=10_000),
)
def test_learning_from_extended_sample_matches_rebuilt(num_states, seed, cut):
    """Gold-style growth: extending a sample ≡ rebuilding it from scratch."""
    target, domain = random_total_dtop(num_states, seed)
    canonical = canonicalize(target, domain)
    pairs = list(characteristic_sample(canonical))
    split = 1 + cut % len(pairs)
    grown = Sample(pairs[:split])
    tables_for(grown).out(())  # compile early: the chain must extend, not rebuild
    grown = grown.extended_with(pairs[split:])
    rebuilt = Sample(pairs)
    learned_grown = rpni_dtop(grown, canonical.domain)
    learned_rebuilt = rpni_dtop(rebuilt, canonical.domain)
    assert _learned_fingerprint(learned_grown) == _learned_fingerprint(learned_rebuilt)
    if split < len(pairs):
        assert grown.cache_stats()["tables_extends"] == 1
    assert grown.cache_stats()["tables_builds"] == 1


class TestActiveLearningReuse:
    """Counterexample rounds extend the sample in place — no full rebuild."""

    def test_sample_tables_extended_not_rebuilt(self):
        target, domain = cycle_relabel(3)
        result = learn_actively(target.try_apply, domain, rng=random.Random(7))
        stats = result.sample.cache_stats()
        # One compilation for the whole session, one extension per
        # example-adding round after it; a rebuild would reset the chain
        # (builds > 1 is impossible by construction, extends proves the
        # rounds reused the live indexes).
        assert stats["tables_builds"] == 1
        assert stats["tables_extends"] >= 1
        assert result.rounds > 1

    def test_active_learning_still_converges(self):
        target, domain = rotate_lists(2)
        result = learn_actively(target.try_apply, domain, rng=random.Random(11))
        canonical = canonicalize(target, domain)
        assert canonicalize(result.learned.dtop, domain).same_translation(canonical)


class TestLineageMemos:
    """Learning memos live on a sample's tables lineage (the sample and
    its extensions), never in the process."""

    def test_results_shared_along_the_lineage_only(self):
        target, domain = rotate_lists(3)
        canonical = canonicalize(target, domain)
        sample = characteristic_sample(canonical)
        first = rpni_dtop(sample, canonical.domain).dtop
        assert rpni_dtop(sample, canonical.domain).dtop is first
        members = [
            source
            for source in enumerate_language(canonical.domain, limit=60)
            if sample.output_of(source) is None
        ]
        outputs = engine_for(canonical.dtop).run_batch(members)
        grown = sample.extended_with(zip(members, outputs))
        assert len(grown) > len(sample)
        assert rpni_dtop(grown, canonical.domain).dtop is first
        fresh = rpni_dtop(Sample(sample.pairs), canonical.domain).dtop
        assert fresh is not first
        assert (fresh.axiom, fresh.rules) == (first.axiom, first.rules)

    def test_learning_retains_no_trees(self):
        """Dropping every result releases every tree learning interned."""

        def learn(seed):
            target, domain = random_total_dtop(2 + seed % 4, seed)
            canonical = canonicalize(target, domain)
            learned = rpni_dtop(characteristic_sample(canonical), canonical.domain)
            assert learned.dtop.rules == canonical.dtop.rules

        learn(10_000)  # module-level constants intern on first use
        gc.collect()
        before = intern_stats()["live"]
        for seed in range(200):
            learn(seed)
        gc.collect()
        assert intern_stats()["live"] <= before + 16


class TestCharsetBuilderIncremental:
    def test_second_sample_call_extends(self):
        from repro.learning.charset import _SampleBuilder
        from repro.trees.generate import monadic_tree

        target, domain = cycle_relabel(2)
        canonical = canonicalize(target, domain)
        builder = _SampleBuilder(canonical)
        builder.add(monadic_tree(["e"]))
        first = builder.sample()
        assert len(first) == 1
        builder.add(monadic_tree(["a", "e"]))
        second = builder.sample()
        assert len(second) == 2
        assert second.cache_stats().get("tables_builds", 1) == 1
        # No new sources → the exact same sample object comes back.
        assert builder.sample() is second


@settings(max_examples=20, deadline=None)
@given(
    num_states=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_out_table_matches_kleene_reference(num_states, seed):
    target, _domain = random_total_dtop(num_states, seed)
    assert out_table(target) == out_table_reference(target)


@pytest.mark.parametrize("family,parameter", [(cycle_relabel, 6), (rotate_lists, 3)])
def test_out_table_matches_reference_on_families(family, parameter):
    target, domain = family(parameter)
    assert out_table(target, None) == out_table_reference(target, None)
