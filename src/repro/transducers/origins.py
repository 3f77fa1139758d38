"""Provenance of output values: slot counts and the origin oracle.

Codecs key document values by the preorder ordinal of their *value slot*
(a node labelled with one of the codec's ``value_labels``); an output
slot takes the value of the input node its rule was reading (§10).
Translations find those pairs in the machine's slot-map memo
(:mod:`repro.engine.provenance`), whose input offsets, like the
decoders' skips, come from :func:`slot_count`.
:func:`apply_with_origins`, the origin-tracking interpreter, is the test
oracle of that memo (``tests/origins_oracle.py``).
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Tuple

from repro.errors import UndefinedTransductionError
from repro.trees.tree import Tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import Call


def slot_count(
    tree: Tree, labels: Collection, counts: Optional[Dict[int, int]] = None
) -> int:
    """The nodes of ``tree`` labelled in ``labels``; ``counts`` memoizes
    every subtree's count by ``uid`` (one dict serves one ``labels``)."""
    if counts is None:
        counts = {}
    else:
        known = counts.get(tree.uid)
        if known is not None:
            return known
    # (node, False) asks for a node's count; (node, True) sums its
    # children's, all counted by then (postorder).
    stack = [(tree, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            total = 1 if node.label in labels else 0
            for child in node.children:
                total += counts[child.uid]
            counts[node.uid] = total
        elif node.uid not in counts:
            stack.append((node, True))
            for child in node.children:
                if child.uid not in counts:
                    stack.append((child, False))
    return counts[tree.uid]


def apply_with_origins(transducer: DTOP, source: Tree) -> Tuple[Tree, List[int]]:
    """``[[M]](s)`` plus its origins: ``origins[k]`` is the preorder
    index, in ``source``, of the input node whose rule emitted the
    output node of preorder index ``k``.

    The origin of axiom-emitted output is the root (index 0).  Raises
    :class:`UndefinedTransductionError` outside the domain; the first
    undefined call in left-to-right pre-order is the one reported.  It
    runs on an explicit stack, and a node's index is an integer, so a
    long cons list needs no recursion and costs linear time.
    """
    origins: List[int] = []
    rhs_of = transducer.rhs
    built: List[Tree] = []
    # A pending item is a template to instantiate — (part, input node,
    # its preorder index) — or an output node whose children are the
    # last ``arity`` entries of ``built``: (label, arity).  Templates
    # pop in output preorder, so ``origins`` grows in that order.
    pending: List[tuple] = [(transducer.axiom, source, 0)]
    while pending:
        item = pending.pop()
        if len(item) == 2:
            label, arity = item
            children = tuple(built[-arity:])
            del built[-arity:]
            built.append(Tree(label, children))
            continue
        part, node, index = item
        label = part.label
        while isinstance(label, Call):
            if label.var:  # x0 (axiom calls only) reads the node itself
                children = node.children
                index += 1
                for sibling in children[: label.var - 1]:
                    index += sibling.size
                node = children[label.var - 1]
            part = rhs_of(label.state, node.label)
            if part is None:
                raise UndefinedTransductionError(
                    f"no rule for state {label.state!r} on symbol {node.label!r}"
                )
            label = part.label
        origins.append(index)
        children = part.children
        if not children:
            built.append(part)
            continue
        pending.append((label, len(children)))
        for child in reversed(children):
            pending.append((child, node, index))
    return built[0], origins
