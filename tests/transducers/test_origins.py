"""Tests for origin-tracking evaluation."""

import sys
from pathlib import Path

import pytest

from repro.codec import load_transformation
from repro.errors import UndefinedTransductionError
from repro.transducers.origins import apply_with_origins
from repro.transducers.rhs import Call
from repro.trees.tree import Tree, parse_term
from repro.workloads.flip import flip_input, flip_transducer

from tests.fuzz.test_differential import random_forest, random_machine


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
