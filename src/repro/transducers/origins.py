"""Provenance of output values: which input value slot each one copies.

Codecs key document values by the preorder ordinal of their *value slot*
(a node labelled with one of the codec's ``value_labels``); an output
slot takes the value of the input node its rule was reading (§10).
:func:`apply_with_origins`, the Dewey-keyed origin-tracking interpreter,
is the test oracle of :func:`value_sources`.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Optional, Tuple

from repro.errors import UndefinedTransductionError
from repro.trees.tree import Tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import Call

Address = Tuple[int, ...]


def slot_count(
    tree: Tree, labels: Collection, counts: Optional[Dict[int, int]] = None
) -> int:
    """The nodes of ``tree`` labelled in ``labels``; ``counts`` memoizes
    every subtree's count by ``uid`` (one dict serves one ``labels``)."""
    counts = {} if counts is None else counts
    stack = [tree]
    while stack:
        node = stack[-1]
        missing = [child for child in node.children if child.uid not in counts]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        counts[node.uid] = (node.label in labels) + sum(
            counts[child.uid] for child in node.children
        )
    return counts[tree.uid]


def value_sources(
    transducer: DTOP,
    source: Tree,
    output: Tree,
    value_labels: Collection,
    counts: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """«output slot ordinal → input slot ordinal» for ``output = [[M]](source)``.

    One iterative walk of the rule templates alongside the output, into
    calls whose input subtree holds a slot.  ``counts`` is one batch's
    :func:`slot_count` memo (ordinal tables per subtree would be
    quadratic on a cons list).
    """
    counts = {} if counts is None else counts
    sources: Dict[int, int] = {}
    # Counting the roots memoizes every subtree the walk looks at.
    if not (
        slot_count(source, value_labels, counts)
        and slot_count(output, value_labels, counts)
    ):
        return sources
    rules = transducer.rules
    # (template part, input node, output node), each node with its
    # ordinal: the number of slots before it in preorder.
    pending: List[tuple] = [(transducer.axiom, source, 0, output, 0)]
    while pending:
        part, node, ordinal, out, out_ordinal = pending.pop()
        label = part.label
        while isinstance(label, Call):
            if label.var:  # x0 (axiom calls only) reads the node itself
                children = node.children
                ordinal += node.label in value_labels
                for child in children[: label.var - 1]:
                    ordinal += counts[child.uid]
                node = children[label.var - 1]
                if not counts[node.uid]:
                    break
            part = rules[label.state, node.label]
            label = part.label
        if isinstance(label, Call):
            continue  # the call reads no value slot
        if label in value_labels:
            if node.label in value_labels:
                sources[out_ordinal] = ordinal
            out_ordinal += 1
        below = []
        for child_part, child in zip(part.children, out.children):
            size = counts[child.uid]
            if size:
                below.append((child_part, node, ordinal, child, out_ordinal))
            out_ordinal += size
        pending.extend(reversed(below))
    return sources


def apply_with_origins(
    transducer: DTOP, source: Tree
) -> Tuple[Tree, Dict[Address, Address]]:
    """``[[M]](s)`` plus a map «output address → originating input address».

    The origin of an output node is the input node whose rule emitted it
    (for axiom-emitted output, the root).  Raises
    :class:`UndefinedTransductionError` outside the domain; the first
    undefined call in left-to-right pre-order is the one reported.
    It runs on an explicit stack: a long cons list needs no recursion.
    """
    origins: Dict[Address, Address] = {}
    rhs_of = transducer.rhs
    built: List[Tree] = []
    # A pending item is a template to instantiate — (part, input node,
    # input address, output address) — or an output node whose
    # children are the last ``arity`` entries of ``built``:
    # (label, arity).
    pending: List[tuple] = [(transducer.axiom, source, (), ())]
    while pending:
        item = pending.pop()
        if len(item) == 2:
            label, arity = item
            children = tuple(built[-arity:])
            del built[-arity:]
            built.append(Tree(label, children))
            continue
        part, node, in_addr, out_addr = item
        label = part.label
        while isinstance(label, Call):
            if label.var:  # x0 (axiom calls only) reads the node itself
                node = node.children[label.var - 1]
                in_addr = in_addr + (label.var,)
            part = rhs_of(label.state, node.label)
            if part is None:
                raise UndefinedTransductionError(
                    f"no rule for state {label.state!r} on symbol {node.label!r}"
                )
            label = part.label
        origins[out_addr] = in_addr
        children = part.children
        if not children:
            built.append(part)
            continue
        pending.append((label, len(children)))
        for index in range(len(children), 0, -1):
            pending.append(
                (children[index - 1], node, in_addr, out_addr + (index,))
            )
    return built[0], origins
