"""Differential fuzzing: every compiled path against its reference.

The harness generates random machines, forests, and samples from fixed
seeds (via :mod:`repro.trees.generate` and
:func:`repro.workloads.families.random_total_dtop`) and asserts
**byte-identical** behaviour across every substrate pair the codebase
maintains:

* execution — recursive interpreter vs. compiled batch engine vs.
  per-tree engine runs vs. the sharded parallel service (jobs > 1):
  identical output terms and identical error type + message, per input;
* learning — ``rpni_dtop`` (compiled sample tables, merge index) vs.
  :func:`tests.learning.reference_sample.rpni_reference` (the
  interpreted substrate, pairwise merge scan): identical serialized
  DTOP, state-io-paths, and trace; identical error type/message and
  structured fields on malformed samples (truncated → insufficient,
  corrupted → inconsistent);
* acceptance — compiled DTTA engine vs. the recursive automaton runs.

``REPRO_FUZZ_SEEDS`` widens the seed budget (the CI ``fuzz-smoke`` job
runs a larger sweep than the tier-1 default).
"""

import os
import random

import pytest

from repro import api
from repro.automata.build import local_dtta_from_trees
from repro.engine import automaton_engine_for, engine_for
from repro.errors import (
    InconsistentSampleError,
    InsufficientSampleError,
    LearningError,
    UndefinedTransductionError,
)
from repro.learning.charset import characteristic_sample
from repro.learning.rpni import rpni_dtop
from repro.learning.sample import Sample
from repro.serve import TransformService
from repro.trees.generate import monadic_tree, random_tree
from repro.trees.tree import Tree
from repro.transducers.minimize import canonicalize
from repro.workloads.families import random_total_dtop

from tests.conftest import without_rules
from tests.learning.reference_sample import rpni_reference

#: Seed budget; the CI fuzz-smoke job raises it via the environment.
FUZZ_SEEDS = range(int(os.environ.get("REPRO_FUZZ_SEEDS", "6")))


def random_machine(seed: int):
    """A random DTOP — total for even seeds, genuinely partial otherwise."""
    rng = random.Random(seed * 9173 + 11)
    machine, domain = random_total_dtop(
        num_states=rng.randint(1, 5), seed=seed
    )
    if seed % 2:
        machine = without_rules(
            machine,
            [key for key in sorted(machine.rules, key=repr) if rng.random() < 0.3],
        )
    return machine, domain


def random_forest(machine, seed: int, count: int = 30):
    rng = random.Random(seed * 7919 + 3)
    return [
        random_tree(machine.input_alphabet, max_height=rng.randint(2, 7), rng=rng)
        for _ in range(count)
    ]


def outcome_bytes(outcome):
    """Canonical byte form of an outcome: term syntax or error message."""
    if isinstance(outcome, Exception):
        return (type(outcome).__name__, str(outcome))
    return ("tree", str(outcome))


def interpreter_outcomes(machine, forest):
    """Reference outcomes from the recursive interpreter, which keeps
    nothing between calls: every input is translated cold."""
    results = []
    for source in forest:
        try:
            results.append(machine.apply(source))
        except UndefinedTransductionError as error:
            results.append(error)
    return results


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_execution_paths_byte_identical(seed):
    machine, _domain = random_machine(seed)
    forest = random_forest(machine, seed)
    reference = [outcome_bytes(o) for o in interpreter_outcomes(machine, forest)]

    engine = engine_for(machine)
    batch = [outcome_bytes(o) for o in engine.run_batch_outcomes(forest)]
    assert batch == reference

    per_tree = []
    for source in forest:
        try:
            per_tree.append(outcome_bytes(engine.run(source)))
        except UndefinedTransductionError as error:
            per_tree.append(outcome_bytes(error))
    assert per_tree == reference

    with TransformService(machine, jobs=2, chunk_size=7) as service:
        parallel = [outcome_bytes(o) for o in service.map(forest)]
    assert parallel == reference


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_engine_byte_identical_to_interpreter(seed):
    """The engine vs. the interpreter.

    Outputs and ``UndefinedTransductionError`` type + message must be
    byte-identical per input, on total and genuinely partial machines,
    cold and warm.
    """
    machine, _domain = random_machine(seed)
    forest = random_forest(machine, seed)
    reference = [outcome_bytes(o) for o in interpreter_outcomes(machine, forest)]
    engine = engine_for(machine)
    cold = [outcome_bytes(o) for o in engine.run_batch_outcomes(forest)]
    assert cold == reference
    warm = [outcome_bytes(o) for o in engine.run_batch_outcomes(forest)]
    assert warm == reference

    per_tree = []
    for source in forest:
        try:
            per_tree.append(outcome_bytes(engine.run(source)))
        except UndefinedTransductionError as error:
            per_tree.append(outcome_bytes(error))
    assert per_tree == reference


def test_engine_survives_depth_100k():
    """The engine never recurses: a depth-100k chain translates or fails
    cleanly, and the warm (memoized) answer equals the cold one."""
    machine, _domain = random_machine(0)  # total machine (even seed)
    deep = monadic_tree(
        [sorted(machine.input_alphabet.symbols_of_rank(1))[0]] * 100_000
    )
    engine = engine_for(machine)

    def run():
        try:
            return outcome_bytes(engine.run(deep))
        except UndefinedTransductionError as error:
            return outcome_bytes(error)

    cold = run()
    assert run() == cold


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_serial_service_and_api_match_engine(seed):
    machine, _domain = random_machine(seed)
    forest = random_forest(machine, seed, count=20)
    reference = [
        outcome_bytes(o)
        for o in engine_for(machine).run_batch_outcomes(forest)
    ]
    with TransformService(machine, jobs=1, chunk_size=3) as service:
        serial = [outcome_bytes(o) for o in service.map(forest)]
    assert serial == reference

    tried = api.try_run_batch(machine, forest, parallel=2)
    for got, want in zip(tried, reference):
        if got is None:
            assert want[0] == "UndefinedTransductionError"
        else:
            assert outcome_bytes(got) == want


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_chunk_geometry_never_changes_outcomes(seed):
    machine, _domain = random_machine(seed)
    forest = random_forest(machine, seed, count=17)
    reference = [
        outcome_bytes(o)
        for o in engine_for(machine).run_batch_outcomes(forest)
    ]
    for jobs, chunk_size in ((2, 1), (2, 4), (3, 2), (2, 100)):
        with TransformService(machine, jobs=jobs, chunk_size=chunk_size) as s:
            assert [outcome_bytes(o) for o in s.map(forest)] == reference


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_acceptance_paths_agree(seed):
    machine, domain = random_machine(seed)
    forest = random_forest(machine, seed, count=25)
    local = local_dtta_from_trees(forest[:10])
    for automaton in (domain, local):
        compiled = automaton_engine_for(automaton).accepts_batch(forest)
        recursive = [automaton.accepts(tree) for tree in forest]
        assert compiled == recursive


def learning_error(error):
    """Type, message and structured fields of a learning failure."""
    return (type(error).__name__, str(error), vars(error))


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_learning_substrates_byte_identical(seed):
    target, domain = random_total_dtop(
        num_states=(seed % 3) + 1, seed=seed * 31 + 5
    )
    canonical = canonicalize(target, domain)
    pairs = list(characteristic_sample(canonical))
    compiled = rpni_dtop(Sample(pairs), canonical.domain)
    interpreted = rpni_reference(Sample(pairs), canonical.domain)
    assert api.serialize(compiled) == api.serialize(interpreted)
    assert compiled.state_paths == interpreted.state_paths
    assert compiled.trace == interpreted.trace


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_learning_error_parity_on_malformed_samples(seed):
    """Truncated and corrupted samples fail identically on both paths."""
    target, domain = random_total_dtop(num_states=2, seed=seed * 53 + 7)
    canonical = canonicalize(target, domain)
    pairs = list(characteristic_sample(canonical))
    if len(pairs) < 2:
        pytest.skip("degenerate target: nothing to truncate")
    rng = random.Random(seed * 17 + 1)

    # Truncation: drop a random fraction of the characteristic sample.
    truncated = [p for p in pairs if rng.random() < 0.5]
    outcomes = []
    for learn in (rpni_dtop, rpni_reference):
        try:
            learned = learn(Sample(truncated), canonical.domain)
            outcomes.append(("ok", api.serialize(learned)))
        except LearningError as error:
            outcomes.append(learning_error(error))
    assert outcomes[0] == outcomes[1]
    if outcomes[0][0] not in ("ok", "InsufficientSampleError"):
        raise AssertionError(f"unexpected failure mode {outcomes[0]}")

    # Corruption: make the sample inconsistent with itself.
    source, output = pairs[0]
    corrupted = pairs + [(source, Tree("u", (output,)))]
    failures = []
    for learn in (rpni_dtop, rpni_reference):
        with pytest.raises(InconsistentSampleError) as caught:
            learn(Sample(corrupted), canonical.domain)
        failures.append(learning_error(caught.value))
    assert failures[0] == failures[1]


def test_insufficient_error_structure_matches():
    """Structured fields of InsufficientSampleError agree across paths."""
    target, domain = random_total_dtop(num_states=2, seed=424242)
    canonical = canonicalize(target, domain)
    pairs = list(characteristic_sample(canonical))
    # Keep only the shortest inputs: guaranteed to lose path evidence.
    pairs.sort(key=lambda p: p[0].size)
    kept = pairs[: max(1, len(pairs) // 4)]
    errors = []
    for learn in (rpni_dtop, rpni_reference):
        try:
            learn(Sample(kept), canonical.domain)
            errors.append(None)
        except InsufficientSampleError as error:
            errors.append((str(error), error.kind, error.u, error.symbol, error.v))
    assert errors[0] == errors[1]
