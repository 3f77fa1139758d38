"""Tests for origin tracking and for the provenance pass checked against it."""

import sys
from pathlib import Path

import pytest

from repro.codec import load_transformation
from repro.engine import engine_for
from repro.errors import UndefinedTransductionError
from repro.transducers.dtop import DTOP
from repro.transducers.origins import apply_with_origins, value_sources
from repro.transducers.rhs import Call, call, rhs_tree
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree, parse_term
from repro.workloads.flip import flip_input, flip_transducer

from tests.fuzz.test_differential import random_forest, random_machine
from tests.origins_oracle import oracle_sources


class TestOrigins:
    def test_output_matches_apply(self):
        transducer = flip_transducer()
        source = flip_input(2, 1)
        output, origins = apply_with_origins(transducer, source)
        assert output == transducer.apply(source)

    def test_every_output_node_has_origin(self):
        transducer = flip_transducer()
        output, origins = apply_with_origins(transducer, flip_input(1, 2))
        assert set(origins) == set(output.nodes())

    def test_swap_origins(self):
        """The b-list in the output comes from input child 2."""
        transducer = flip_transducer()
        output, origins = apply_with_origins(transducer, flip_input(1, 1))
        # Output position (1,) is the b produced while reading input (2,).
        assert origins[(1,)] == (2,)
        assert origins[(2,)] == (1,)

    def test_axiom_output_originates_at_root(self):
        transducer = flip_transducer()
        _, origins = apply_with_origins(transducer, flip_input(0, 0))
        assert origins[()] == ()

    def test_copying_origins(self):
        from repro.workloads.families import exp_full_binary
        from repro.trees.generate import monadic_tree

        transducer, _ = exp_full_binary()
        output, origins = apply_with_origins(
            transducer, monadic_tree(["a"], end="e")
        )
        # Both leaves of f(l, l) originate from the same input node (1,).
        assert origins[(1,)] == (1,)
        assert origins[(2,)] == (1,)

    def test_undefined_raises(self):
        with pytest.raises(UndefinedTransductionError):
            apply_with_origins(flip_transducer(), parse_term("#"))


def _recursive_origins(transducer, source):
    """The recursive definition: instantiate templates depth first."""
    origins = {}

    def instantiate(part, node, in_addr, out_addr):
        label = part.label
        if isinstance(label, Call):
            child = node.children[label.var - 1] if label.var else node
            child_addr = in_addr + (label.var,) if label.var else in_addr
            rhs = transducer.rhs(label.state, child.label)
            if rhs is None:
                raise UndefinedTransductionError(
                    f"no rule for state {label.state!r} on symbol {child.label!r}"
                )
            return instantiate(rhs, child, child_addr, out_addr)
        origins[out_addr] = in_addr
        return Tree(
            label,
            tuple(
                instantiate(child, node, in_addr, out_addr + (index,))
                for index, child in enumerate(part.children, start=1)
            ),
        )

    return instantiate(transducer.axiom, source, (), ()), origins


def _outcome(run, machine, tree):
    try:
        output, origins = run(machine, tree)
    except UndefinedTransductionError as error:
        return ("error", str(error))
    return (str(output), origins)


@pytest.mark.parametrize("seed", range(6))
def test_matches_the_recursive_definition(seed):
    """Same output, origin map and first-error message, total or partial."""
    machine, _ = random_machine(seed)
    for tree in random_forest(machine, seed):
        assert _outcome(apply_with_origins, machine, tree) == _outcome(
            _recursive_origins, machine, tree
        )


def test_wide_cons_list_needs_no_recursion():
    transformation = load_transformation(
        Path(__file__).resolve().parents[2] / "models" / "identity-json@1.json"
    )
    tree, values = transformation.codec.input_encoder.encode_with_values(
        [f"s{index}" for index in range(5 * sys.getrecursionlimit())]
    )
    output, origins = apply_with_origins(transformation.transducer, tree)
    assert output == tree
    assert len(origins) == tree.size


#: Value slots of the random machines: input ``g``/``c`` and output
#: ``u``/``d`` nodes, so inner nodes are slots as well as leaves.
RANDOM_SLOTS = ("c", "g", "d", "u")


def test_value_sources_match_the_origin_oracle():
    """Random machines copy, delete and call bare; the pass over the
    engine's output must find exactly the oracle's slot pairs, with one
    slot-count memo per forest, as within a batch."""
    pairs = 0
    for seed in range(12):
        machine, _ = random_machine(seed)
        forest = random_forest(machine, seed)
        counts = {}
        outputs = engine_for(machine).run_batch_outcomes(forest)
        for tree, output in zip(forest, outputs):
            if isinstance(output, Exception):
                continue
            expected_output, expected = oracle_sources(machine, tree, RANDOM_SLOTS)
            assert output is expected_output
            got = value_sources(machine, tree, output, RANDOM_SLOTS, counts)
            assert got == expected, (seed, str(tree))
            pairs += len(expected)
    assert pairs > 100


def _spine_machine(rules):
    """A machine over ``s(head, rest)`` spines ending in ``e(v)``."""
    return DTOP(
        RankedAlphabet({"s": 2, "e": 1, "v": 0}),
        RankedAlphabet({"s": 2, "e": 1, "v": 0, "out": 1}),
        call("q", 0),
        {key: rhs_tree(spec) for key, spec in rules.items()},
    )


def _spine(cells):
    tree = Tree("e", (Tree("v"),))
    for _ in range(cells):
        tree = Tree("s", (Tree("v"), tree))
    return tree


SPINE_CELLS = 10_000


def test_bare_calls_down_a_long_spine():
    """Deleting bare calls walk 10,000 cells to copy the last value: the
    one output slot reads input slot 10,000."""
    machine = _spine_machine(
        {
            ("q", "s"): ("q", 2),
            ("q", "e"): ("out", ("c", 1)),
            ("c", "v"): "v",
        }
    )
    source = _spine(SPINE_CELLS)
    output = engine_for(machine).run(source)
    assert value_sources(machine, source, output, ("v",)) == {0: SPINE_CELLS}
    # The oracle agrees: the output slot's origin is the last ``v``.
    assert apply_with_origins(machine, source) == (
        output,
        {(): (2,) * SPINE_CELLS, (1,): (2,) * SPINE_CELLS + (1,)},
    )


def test_copying_a_long_spine():
    """A copy of 10,000 cells maps every slot to itself; a duplicating
    copy maps both copies of a head to it."""
    identity = _spine_machine(
        {
            ("q", "s"): ("s", ("c", 1), ("q", 2)),
            ("q", "e"): ("e", ("c", 1)),
            ("c", "v"): "v",
        }
    )
    source = _spine(SPINE_CELLS)
    output = engine_for(identity).run(source)
    assert output is source
    assert value_sources(identity, source, output, ("v",)) == {
        slot: slot for slot in range(SPINE_CELLS + 1)
    }
    doubling = _spine_machine(
        {
            ("q", "s"): ("s", ("c", 1), ("s", ("c", 1), ("q", 2))),
            ("q", "e"): ("e", ("c", 1)),
            ("c", "v"): "v",
        }
    )
    output = engine_for(doubling).run(source)
    sources = value_sources(doubling, source, output, ("v",))
    assert sources == {
        slot: min(slot // 2, SPINE_CELLS) for slot in range(2 * SPINE_CELLS + 1)
    }
