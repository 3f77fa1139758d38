"""Value provenance memoized per machine: slot maps (Section 10).

A codec keys document values by the preorder ordinal of their *value
slot* (a node labelled with one of its value labels); an output slot
takes the value of the input node its rule was reading.  Which output
slot of ``[[q]](u)`` copies which input slot of ``u`` depends only on
the state ``q`` and the subtree ``u``, not on where ``u`` sits, so the
map is memoized per ``(state_id, uid)`` like the engine's run memo:

* an *entry* is the output slot count of ``[[q]](u)`` and its
  *pieces*: an ``int`` ``o`` — "output slot ``o`` copies ``u`` itself"
  — or ``(o, i, entry)`` — "the map of a call pair, shifted by output
  offset ``o`` and input offset ``i``".  A pair whose map is empty is
  stored as its bare slot count;
* input offsets come from the input slot counts
  (:func:`~repro.transducers.origins.slot_count`), memoized per ``uid``
  in the same dict;
* a document fills its missing pairs in height order, children first,
  as the engine's sweep does, and its map is flattened once with one
  explicit stack.

A piece holds its callee's entry rather than a copy of its map, so a
10,000-cell cons spine costs linear time and memory, and no step
recurses.  The memo lives on the machine's engine
(:meth:`Engine.slot_sources <repro.engine.execute.Engine.slot_sources>`),
which serializes it under its lock and bounds it with its run memo.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Tuple

from repro.errors import UndefinedTransductionError
from repro.trees.tree import Tree
from repro.transducers.origins import slot_count
from repro.transducers.rhs import Call

from repro.engine.compile import CompiledDTOP

#: The pseudo state id of a document root's axiom entry.
AXIOM = -1


def _program(rhs: Tree, state_ids: Dict, labels: frozenset) -> Tuple:
    """An rhs in output preorder: ``int`` runs of value slots it emits
    itself, and ``(state_id, var)`` calls."""
    items: List = []
    stack = [rhs]
    while stack:
        node = stack.pop()
        label = node.label
        if isinstance(label, Call):
            items.append((state_ids[label.state], label.var))
            continue
        if label in labels:
            if items and items[-1].__class__ is int:
                items[-1] += 1
            else:
                items.append(1)
        stack.extend(reversed(node.children))
    return tuple(items)


class SlotMaps:
    """One machine's slot-map memo for one set of value labels."""

    __slots__ = ("compiled", "labels", "programs", "axiom", "entries")

    def __init__(self, compiled: CompiledDTOP, labels: Collection):
        self.compiled = compiled
        self.labels = frozenset(labels)
        state_ids = compiled.state_ids
        machine = compiled.source
        self.programs: List[Tuple] = [()] * len(compiled.rule_templates)
        for (state, symbol), rhs in machine.rules.items():
            rule = compiled.rule_index(state_ids[state], symbol)
            self.programs[rule] = _program(rhs, state_ids, self.labels)
        self.axiom = _program(machine.axiom, state_ids, self.labels)
        #: ``(state_id, uid)`` → entry, and ``uid`` → input slot count.
        self.entries: Dict = {}

    def sources(
        self, root: Tree, pins: Dict[int, Tree]
    ) -> Tuple[Dict[int, int], int]:
        """«output slot ordinal → input slot ordinal» of ``[[M]](root)``,
        and the number of pairs filled for it (``pins`` keeps each
        filled pair's subtree alive, so its uid stays the memo key)."""
        entry = self.entries.get((AXIOM, root.uid))
        fills = 0
        if entry is None:
            fills = self._fill(root, pins)
            entry = self.entries[(AXIOM, root.uid)]
        sources: Dict[int, int] = {}
        if entry.__class__ is int:
            return sources, fills
        stack = [(0, 0, entry[1])]
        while stack:
            out, into, pieces = stack.pop()
            for piece in pieces:
                if piece.__class__ is int:
                    sources[out + piece] = into
                else:
                    stack.append((out + piece[0], into + piece[1], piece[2][1]))
        return sources, fills

    def _fill(self, root: Tree, pins: Dict[int, Tree]) -> int:
        """Memoize every missing pair of ``root``'s run, then its axiom."""
        compiled = self.compiled
        entries = self.entries
        slot_count(root, self.labels, entries)
        rule_of = compiled.rule_of
        rule_calls = compiled.rule_calls
        num_symbols = compiled.num_symbols
        symbol_ids = compiled.symbol_ids
        demanded: Dict[Tuple[int, int], Tuple[Tree, int]] = {}
        stack = [(state_id, root) for state_id, _var in compiled.axiom_calls]
        while stack:
            state_id, node = stack.pop()
            key = (state_id, node.uid)
            if key in entries or key in demanded:
                continue
            symbol_id = symbol_ids.get(node.label)
            rule = -1 if symbol_id is None else rule_of[
                state_id * num_symbols + symbol_id
            ]
            if rule < 0:
                raise UndefinedTransductionError(
                    f"no rule for state {compiled.state_names[state_id]!r} "
                    f"on symbol {node.label!r}"
                )
            demanded[key] = (node, rule)
            children = node.children
            for called_id, var in rule_calls[rule]:
                stack.append((called_id, children[var - 1]))
        programs = self.programs
        for key, (node, rule) in sorted(
            demanded.items(), key=lambda item: item[1][0].height
        ):
            entries[key] = self._entry(programs[rule], node)
            pins[node.uid] = node
        entries[(AXIOM, root.uid)] = self._entry(self.axiom, root)
        return len(demanded)

    def _entry(self, program: Tuple, node: Tree):
        """The entry of ``node`` under ``program``; every call pair it
        reads is already memoized."""
        entries = self.entries
        own = 1 if node.label in self.labels else 0
        children = node.children
        out = 0
        pieces: List = []
        for item in program:
            if item.__class__ is int:
                if own:
                    pieces.extend(range(out, out + item))
                out += item
                continue
            state_id, var = item
            if not var:  # x0 (axiom calls only) reads the node itself
                entry = entries[(state_id, node.uid)]
                shift = 0
            else:
                entry = entries[(state_id, children[var - 1].uid)]
                shift = own
                for sibling in children[: var - 1]:
                    shift += entries[sibling.uid]
            if entry.__class__ is int:
                out += entry
            else:
                pieces.append((out, shift, entry))
                out += entry[0]
        return (out, tuple(pieces)) if pieces else out
