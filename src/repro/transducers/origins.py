"""Origin-tracking evaluation of a DTOP.

For value rehydration (and provenance generally) we need to know, for
every node of the output tree, which input node the emitting rule was
reading.  ``apply_with_origins`` evaluates the transducer while
threading Dewey addresses on both sides; it costs O(|output|) — no
memoization is possible because each output position is distinct.

The evaluation runs on an explicit stack, so a long cons list (a wide
JSON array or XML list) costs no Python recursion at all.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import UndefinedTransductionError
from repro.trees.tree import Tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import Call

Address = Tuple[int, ...]


def apply_with_origins(
    transducer: DTOP, source: Tree
) -> Tuple[Tree, Dict[Address, Address]]:
    """``[[M]](s)`` plus a map «output address → originating input address».

    The origin of an output node is the input node whose rule emitted it
    (for axiom-emitted output, the root).  Raises
    :class:`UndefinedTransductionError` outside the domain; the first
    undefined call in left-to-right pre-order is the one reported.
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
