"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree
from repro.transducers.dtop import DTOP


BINARY_ALPHABET = RankedAlphabet({"f": 2, "g": 1, "a": 0, "b": 0})


def without_rules(machine: DTOP, dropped) -> DTOP:
    """A partial copy of ``machine``: the same states, minus the rules
    keyed in ``dropped`` (machines are immutable, so this builds anew)."""
    dropped = set(dropped)
    return DTOP(
        machine.input_alphabet,
        machine.output_alphabet,
        machine.axiom,
        {key: rhs for key, rhs in machine.rules.items() if key not in dropped},
        states=machine.states,
    )


def dag_node_count(root: Tree) -> int:
    """Distinct nodes under ``root``: the size of its minimal DAG, since
    interned trees share every repeated subtree."""
    seen = {root.uid}
    stack = [root]
    while stack:
        for child in stack.pop().children:
            if child.uid not in seen:
                seen.add(child.uid)
                stack.append(child)
    return len(seen)


def trees_over(alphabet: RankedAlphabet, max_depth: int = 4):
    """A hypothesis strategy producing trees over a ranked alphabet."""
    constants = alphabet.constants
    internals = [(s, r) for s, r in alphabet.items() if r > 0]

    def extend(children_strategy):
        def build(symbol_rank):
            symbol, rank = symbol_rank
            return st.tuples(*([children_strategy] * rank)).map(
                lambda kids: Tree(symbol, kids)
            )

        leaves = st.sampled_from(constants).map(lambda s: Tree(s, ()))
        if not internals:
            return leaves
        return st.one_of(leaves, st.sampled_from(internals).flatmap(build))

    strategy = st.sampled_from(constants).map(lambda s: Tree(s, ()))
    for _ in range(max_depth):
        strategy = extend(strategy)
    return strategy


@pytest.fixture
def rng():
    return random.Random(20260612)


@pytest.fixture
def binary_alphabet():
    return BINARY_ALPHABET
