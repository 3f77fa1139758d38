"""Tests for origin tracking and for the slot-map memo checked against it."""

import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.codec import load_transformation
from repro.engine import engine_for
from repro.errors import UndefinedTransductionError
from repro.transducers.dtop import DTOP
from repro.transducers.origins import apply_with_origins, slot_count
from repro.transducers.rhs import Call, call, rhs_tree
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree, parse_term
from repro.workloads.flip import flip_input, flip_transducer

from tests.fuzz.test_differential import random_forest, random_machine
from tests.origins_oracle import dewey, oracle_sources, parent_table


def dewey_origins(source, output, origins):
    """An origin list as «output Dewey address → input Dewey address»."""
    out_rows, in_rows = parent_table(output), parent_table(source)
    return {
        dewey(out_rows, index): dewey(in_rows, into)
        for index, into in enumerate(origins)
    }


class TestOrigins:
    def test_output_matches_apply(self):
        transducer = flip_transducer()
        source = flip_input(2, 1)
        output, origins = apply_with_origins(transducer, source)
        assert output == transducer.apply(source)

    def test_every_output_node_has_origin(self):
        transducer = flip_transducer()
        source = flip_input(1, 2)
        output, origins = apply_with_origins(transducer, source)
        assert len(origins) == output.size
        assert set(dewey_origins(source, output, origins)) == set(output.nodes())

    def test_swap_origins(self):
        """The b-list in the output comes from input child 2."""
        transducer = flip_transducer()
        source = flip_input(1, 1)
        output, origins = apply_with_origins(transducer, source)
        # Output position (1,) is the b produced while reading input (2,).
        assert origins[1] == 1 + source.children[0].size
        dewey_map = dewey_origins(source, output, origins)
        assert dewey_map[(1,)] == (2,)
        assert dewey_map[(2,)] == (1,)

    def test_axiom_output_originates_at_root(self):
        transducer = flip_transducer()
        _, origins = apply_with_origins(transducer, flip_input(0, 0))
        assert origins[0] == 0

    def test_copying_origins(self):
        from repro.workloads.families import exp_full_binary
        from repro.trees.generate import monadic_tree

        transducer, _ = exp_full_binary()
        source = monadic_tree(["a"], end="e")
        output, origins = apply_with_origins(transducer, source)
        # Both leaves of f(l, l) originate from the same input node (1,).
        origins = dewey_origins(source, output, origins)
        assert origins[(1,)] == (1,)
        assert origins[(2,)] == (1,)

    def test_undefined_raises(self):
        with pytest.raises(UndefinedTransductionError):
            apply_with_origins(flip_transducer(), parse_term("#"))


def _recursive_origins(transducer, source):
    """The recursive definition: instantiate templates depth first, with
    Dewey addresses."""
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
    if isinstance(origins, list):
        origins = dewey_origins(tree, output, origins)
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
    # Integer node indexes keep the origin map linear in the output.
    tracemalloc.start()
    try:
        output, origins = apply_with_origins(transformation.transducer, tree)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert output == tree
    assert len(origins) == tree.size


#: Value slots of the random machines: input ``g``/``c`` and output
#: ``u``/``d`` nodes, so inner nodes are slots as well as leaves.
RANDOM_SLOTS = ("c", "g", "d", "u")


def test_slot_sources_match_the_origin_oracle():
    """Random machines copy, delete and call bare; the slot-map memo
    must give exactly the oracle's slot pairs, filled or answered from
    the memo the forest before it filled."""
    pairs = 0
    for seed in range(12):
        machine, _ = random_machine(seed)
        engine = engine_for(machine)
        forest = random_forest(machine, seed)
        outputs = engine.run_batch_outcomes(forest)
        for tree, output in zip(forest, outputs):
            if isinstance(output, Exception):
                with pytest.raises(UndefinedTransductionError):
                    engine.slot_sources(tree, RANDOM_SLOTS)
                continue
            expected_output, expected = oracle_sources(machine, tree, RANDOM_SLOTS)
            assert output is expected_output
            for _ in range(2):
                got = engine.slot_sources(tree, RANDOM_SLOTS)
                assert got == expected, (seed, str(tree))
            pairs += len(expected)
    assert pairs > 100


def test_slot_count_memo():
    """A filled memo answers every subtree of the counted tree; a
    memoized root is answered from the memo without a walk."""
    tree = parse_term("f(v, g(v, w), v)")
    counts = {}
    assert slot_count(tree, ("v", "w"), counts) == 4
    for _, subtree in tree.subtrees():
        assert counts[subtree.uid] == slot_count(subtree, ("v", "w"))
    counts[tree.uid] = 99
    assert slot_count(tree, ("v", "w"), counts) == 99


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
    assert engine_for(machine).slot_sources(source, ("v",)) == {0: SPINE_CELLS}
    # The oracle agrees: the output slot's origin is the last ``v``.
    oracle_output, origins = apply_with_origins(machine, source)
    assert oracle_output is output
    assert dewey_origins(source, output, origins) == {
        (): (2,) * SPINE_CELLS,
        (1,): (2,) * SPINE_CELLS + (1,),
    }


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
    assert engine_for(identity).slot_sources(source, ("v",)) == {
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
    sources = engine_for(doubling).slot_sources(source, ("v",))
    assert sources == {
        slot: min(slot // 2, SPINE_CELLS) for slot in range(2 * SPINE_CELLS + 1)
    }
