"""Differential fuzzing of fused pipelines against staged execution.

``compose_chain`` promises that a fused pipeline is the *same partial
function* as running the stages one by one — with the composition
caveats of :mod:`repro.transducers.compose` spelled out exactly:

* **nondeleting** chains (every input variable consumed): the fused
  machine's domain equals the staged chain's domain, and outputs are
  byte-identical — asserted both ways on total and genuinely partial
  stages;
* **deleting** chains: wherever the staged chain is defined the fused
  machine is defined with the byte-identical output, and wherever the
  fused machine is undefined the staged chain is undefined too (the
  fused domain may be strictly larger: deleted-then-required inputs
  cannot be expressed, Section 7);
* ``earliest=True`` keeps outputs byte-identical on the fused domain
  but may enlarge the domain further (the machine/inspection split);
* the fused machine itself is an ordinary DTOP: the engine
  reproduces the interpreter byte-for-byte on it, errors included.

The stage generator lives here (``random_chain_stage``) because the
``random_total_dtop`` family is not chainable — its output alphabet is
disjoint from its input alphabet — so pipeline fuzzing needs closed
machines over one alphabet.
"""

import random

import pytest

from repro import api
from repro.engine import engine_for
from repro.errors import UndefinedTransductionError
from repro.trees.alphabet import RankedAlphabet
from repro.trees.generate import random_tree
from repro.trees.tree import Tree
from repro.transducers.compose import compose_chain
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import call, rhs_tree

from tests.conftest import without_rules
from tests.fuzz.test_differential import FUZZ_SEEDS, outcome_bytes

#: One closed alphabet every stage maps into itself, so chains of any
#: length type-check.
CHAIN_ALPHABET = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})


def _random_rhs(rng, states, rank, deleting):
    if rank == 0:
        leaf = rhs_tree(rng.choice(["a", "b"]))
        return Tree("g", (leaf,)) if rng.random() < 0.3 else leaf
    if rank == 1:
        out = call(rng.choice(states), 1)
        for _ in range(rng.randint(0, 2)):
            out = Tree("g", (out,))
        return out
    if deleting and rng.random() < 0.5:
        out = call(rng.choice(states), rng.choice([1, 2]))
        return Tree("g", (out,)) if rng.random() < 0.5 else out
    out = Tree(
        "f", (call(rng.choice(states), 1), call(rng.choice(states), 2))
    )
    return Tree("g", (out,)) if rng.random() < 0.3 else out


def random_chain_stage(seed, partial=False, deleting=False):
    """A random DTOP over :data:`CHAIN_ALPHABET` (closed, chainable).

    Nondeleting and nonduplicating unless ``deleting`` — exactly the
    regime where composition is domain-exact.  ``partial`` drops rules,
    making undefinedness reachable mid-chain.
    """
    rng = random.Random(seed * 6151 + 17)
    states = [f"q{i}" for i in range(rng.randint(1, 3))]
    rules = {
        (state, symbol): _random_rhs(rng, states, rank, deleting)
        for state in states
        for symbol, rank in sorted(CHAIN_ALPHABET.items())
    }
    machine = DTOP(
        CHAIN_ALPHABET, CHAIN_ALPHABET, call(rng.choice(states), 0), rules
    )
    if partial:
        dropped = []
        for key in sorted(machine.rules, key=repr):
            if len(machine.rules) - len(dropped) > 1 and rng.random() < 0.25:
                dropped.append(key)
        machine = without_rules(machine, dropped)
    return machine


def random_chain(seed, length=3, partial=False, deleting=False):
    return [
        random_chain_stage(
            seed * 101 + index * 7,
            partial=partial and index % 2 == 1,
            deleting=deleting and index % 2 == 1,
        )
        for index in range(length)
    ]


def chain_forest(seed, count=25):
    rng = random.Random(seed * 7907 + 5)
    return [
        random_tree(CHAIN_ALPHABET, max_height=rng.randint(2, 6), rng=rng)
        for _ in range(count)
    ]


def staged_outcome(stages, source):
    """The reference: run the stages one by one through the interpreter."""
    current = source
    for stage in stages:
        try:
            current = stage.apply(current)
        except UndefinedTransductionError as error:
            return error
    return current


def fused_outcome(fused, source):
    try:
        return fused.apply(source)
    except UndefinedTransductionError as error:
        return error


@pytest.mark.parametrize("partial", [False, True])
@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fused_equals_staged_on_nondeleting_chains(seed, partial):
    """Nondeleting chains: identical domains, byte-identical outputs."""
    stages = random_chain(seed, length=3, partial=partial)
    fused = compose_chain(stages)
    for source in chain_forest(seed):
        staged = staged_outcome(stages, source)
        got = fused_outcome(fused, source)
        if isinstance(staged, Tree):
            assert isinstance(got, Tree), f"fused undefined on {source}"
            assert str(got) == str(staged)
        else:
            assert isinstance(got, UndefinedTransductionError), (
                f"fused defined on {source} where the staged chain is not"
            )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fused_one_directional_on_deleting_chains(seed):
    """Deleting stages: staged-defined ⇒ fused-defined and equal;
    fused-undefined ⇒ staged-undefined (the fused domain may be
    strictly larger, never smaller)."""
    stages = random_chain(seed, length=3, partial=True, deleting=True)
    fused = compose_chain(stages)
    for source in chain_forest(seed):
        staged = staged_outcome(stages, source)
        got = fused_outcome(fused, source)
        if isinstance(staged, Tree):
            assert isinstance(got, Tree), f"fused undefined on {source}"
            assert str(got) == str(staged)
        elif isinstance(got, UndefinedTransductionError):
            assert isinstance(staged, UndefinedTransductionError)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_earliest_fusion_output_parity(seed):
    """Earliest normalization: byte-identical outputs on the fused
    domain (its own domain may be larger — never asserted smaller)."""
    stages = random_chain(seed, length=3, partial=True)
    fused = compose_chain(stages)
    fused_earliest = compose_chain(stages, earliest=True)
    for source in chain_forest(seed):
        got = fused_outcome(fused, source)
        if isinstance(got, Tree):
            earliest = fused_outcome(fused_earliest, source)
            assert isinstance(earliest, Tree)
            assert str(earliest) == str(got)


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fused_machine_engine_byte_identical(seed):
    """The fused machine is an ordinary DTOP: the engine reproduces the
    interpreter on it byte-for-byte, errors included."""
    stages = random_chain(seed, length=3, partial=True)
    fused = compose_chain(stages)
    forest = chain_forest(seed, count=15)
    reference = [
        outcome_bytes(fused_outcome(fused, source)) for source in forest
    ]
    engine = engine_for(fused)
    engine.clear_cache()  # a cold memo: nothing served from earlier runs
    got = [outcome_bytes(o) for o in engine.run_batch_outcomes(forest)]
    assert got == reference


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_api_fuse_matches_staged_api_runs(seed):
    """``api.fuse`` + ``api.run`` equals nested ``api.run`` staging."""
    stages = random_chain(seed, length=3)
    fused = api.fuse(stages)
    for source in chain_forest(seed, count=10):
        staged = source
        for stage in stages:
            staged = api.run(stage, staged)
        assert str(api.run(fused, source)) == str(staged)
