"""Lower DTOP / DTTA objects into integer-indexed flat rule tables.

The interpreter in :mod:`repro.transducers.dtop` dispatches every step
through a dict keyed by ``(state name, symbol)`` and walks right-hand-side
trees recursively.  The compiler performs all of that name resolution and
tree walking **once per machine**:

* states and input symbols are interned to dense integer ids;
* rule dispatch becomes one read of a flat array indexed by
  ``state_id * num_symbols + symbol_id``;
* each right-hand side is flattened into a postorder instruction template
  (:data:`OP_CONST` / :data:`OP_CALL` / :data:`OP_MAKE`) that the executor
  replays with an explicit operand stack — call-free subtrees collapse to
  a single constant-push instruction;
* for demand analysis, the state calls of every rule are precomputed in
  document order (left-to-right output order, matching the interpreter's
  evaluation and therefore its error order).

Compilation is cheap — linear in the machine size — and the resulting
tables are immutable, matching the immutability contract of the machines
themselves.  :class:`CompiledDTOP` / :class:`CompiledDTTA` hold no
evaluation state; the per-batch machinery lives in
:mod:`repro.engine.execute`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.trees.tree import Label, Tree
from repro.transducers.rhs import Call, StateName

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.automata.dtta import DTTA
    from repro.transducers.dtop import DTOP

#: Push a ground (call-free) output subtree.  Operand: the Tree.
OP_CONST = 0
#: Push the translation of a child: operands ``(state_id, var)`` where
#: ``var`` is 1-based (0 = the input root itself, axioms only).
OP_CALL = 1
#: Pop ``arity`` operands, push ``Tree(label, popped)``.  Operands:
#: ``(label, arity)``.
OP_MAKE = 2

Instruction = Tuple  # (opcode, ...) — see the OP_* constants
Template = Tuple[Instruction, ...]
CallSite = Tuple[int, int]  # (state_id, var)


class CompiledDTOP:
    """A DTOP lowered to flat tables.  Build via :func:`compile_dtop`."""

    __slots__ = (
        "source",
        "state_ids",
        "state_names",
        "symbol_ids",
        "symbol_names",
        "num_states",
        "num_symbols",
        "symbol_arity",
        "rule_of",
        "rule_calls",
        "rule_templates",
        "axiom_calls",
        "axiom_template",
    )

    source: "DTOP"
    #: state name → dense id, and the inverse list.
    state_ids: Dict[StateName, int]
    state_names: List[StateName]
    #: input symbol → dense id, and the inverse list.
    symbol_ids: Dict[Label, int]
    symbol_names: List[Label]
    num_states: int
    num_symbols: int
    #: Per symbol id: its rank in the input alphabet (backends use this
    #: to recognize non-deleting machines without the source object).
    symbol_arity: List[int]
    #: Flat dispatch: ``rule_of[state_id * num_symbols + symbol_id]`` is a
    #: rule index, or -1 when the transducer is undefined there.
    rule_of: List[int]
    #: Per rule: distinct ``(state_id, var)`` call sites, document order.
    rule_calls: List[Tuple[CallSite, ...]]
    #: Per rule: the postorder instruction template of its rhs.
    rule_templates: List[Template]
    #: Axiom call sites (always ``var == 0``) and template.
    axiom_calls: Tuple[CallSite, ...]
    axiom_template: Template

    def rule_index(self, state_id: int, symbol: Label) -> int:
        """Dispatch ``(state_id, input label)``; -1 when undefined."""
        symbol_id = self.symbol_ids.get(symbol)
        if symbol_id is None:
            return -1
        return self.rule_of[state_id * self.num_symbols + symbol_id]

    def __repr__(self) -> str:
        defined = sum(1 for r in self.rule_of if r >= 0)
        return (
            f"CompiledDTOP(states={self.num_states}, "
            f"symbols={self.num_symbols}, rules={defined})"
        )


def _call_flags(root: Tree) -> Dict[int, bool]:
    """``uid → does the subtree contain a state call`` (iterative)."""
    flags: Dict[int, bool] = {}
    stack: List[Tuple[Tree, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node.uid in flags:
            continue
        if expanded or not node.children:
            flags[node.uid] = isinstance(node.label, Call) or any(
                flags[c.uid] for c in node.children
            )
        else:
            stack.append((node, True))
            for child in node.children:
                if child.uid not in flags:
                    stack.append((child, False))
    return flags


def _compile_template(
    rhs: Tree, state_ids: Dict[StateName, int]
) -> Tuple[Template, Tuple[CallSite, ...]]:
    """Flatten an rhs tree into a postorder instruction template.

    Subtrees without calls are ground output and collapse to one
    :data:`OP_CONST`; the returned call sites are in document order with
    duplicates removed (first occurrence wins).
    """
    flags = _call_flags(rhs)
    program: List[Instruction] = []
    stack: List[Tuple[Tree, bool]] = [(rhs, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            program.append((OP_MAKE, node.label, len(node.children)))
            continue
        if not flags[node.uid]:
            program.append((OP_CONST, node))
            continue
        label = node.label
        if isinstance(label, Call):
            program.append((OP_CALL, state_ids[label.state], label.var))
            continue
        stack.append((node, True))
        for child in reversed(node.children):
            stack.append((child, False))
    calls: List[CallSite] = []
    seen = set()
    for instruction in program:
        if instruction[0] == OP_CALL:
            site = (instruction[1], instruction[2])
            if site not in seen:
                seen.add(site)
                calls.append(site)
    return tuple(program), tuple(calls)


_COUNTER_LOCK = threading.Lock()
_compiles = 0


def artifact_stats() -> Dict[str, int]:
    """Process-wide count of :func:`compile_dtop` calls since the last reset."""
    with _COUNTER_LOCK:
        # ``payload_hits`` is always 0; perfbench/serving.py still reads it.
        return {"compiles": _compiles, "payload_hits": 0}


def reset_artifact_stats() -> None:
    """Zero the process-wide compile counter."""
    global _compiles
    with _COUNTER_LOCK:
        _compiles = 0


def compile_dtop(transducer: "DTOP") -> CompiledDTOP:
    """Lower a :class:`~repro.transducers.dtop.DTOP` into flat tables.

    Deterministic: ids are assigned in sorted (``repr``) order, so equal
    machines compile to equal tables.  Every call counts one compilation
    in :func:`artifact_stats`.
    """
    global _compiles
    with _COUNTER_LOCK:
        _compiles += 1
    compiled = object.__new__(CompiledDTOP)
    compiled.source = transducer
    state_names = sorted(transducer.states, key=repr)
    state_ids = {name: index for index, name in enumerate(state_names)}
    symbol_names = sorted(transducer.input_alphabet, key=repr)
    symbol_ids = {name: index for index, name in enumerate(symbol_names)}
    compiled.state_names = state_names
    compiled.state_ids = state_ids
    compiled.symbol_names = symbol_names
    compiled.symbol_ids = symbol_ids
    compiled.num_states = len(state_names)
    compiled.num_symbols = len(symbol_names)
    compiled.symbol_arity = [
        transducer.input_alphabet.rank(symbol) for symbol in symbol_names
    ]

    rule_of = [-1] * (len(state_names) * len(symbol_names))
    rule_calls: List[Tuple[CallSite, ...]] = []
    rule_templates: List[Template] = []
    template_memo: Dict[int, int] = {}  # rhs uid → rule index
    for (state, symbol), rhs in transducer.rules.items():
        rule = template_memo.get(rhs.uid)
        if rule is None:
            rule = len(rule_templates)
            template, calls = _compile_template(rhs, state_ids)
            rule_templates.append(template)
            rule_calls.append(calls)
            template_memo[rhs.uid] = rule
        rule_of[state_ids[state] * len(symbol_names) + symbol_ids[symbol]] = rule
    compiled.rule_of = rule_of
    compiled.rule_calls = rule_calls
    compiled.rule_templates = rule_templates
    compiled.axiom_template, compiled.axiom_calls = _compile_template(
        transducer.axiom, state_ids
    )
    return compiled


class CompiledDTTA:
    """A DTTA lowered to flat tables.  Build via :func:`compile_dtta`."""

    __slots__ = (
        "source",
        "state_ids",
        "state_names",
        "symbol_ids",
        "symbol_names",
        "num_states",
        "initial_id",
        "by_symbol",
    )

    source: "DTTA"
    state_ids: Dict[object, int]
    state_names: List[object]
    symbol_ids: Dict[Label, int]
    symbol_names: List[Label]
    num_states: int
    initial_id: int
    #: Per symbol id: all transitions on that symbol as
    #: ``(state_id, (child_state_id, …))`` rows.
    by_symbol: List[Tuple[Tuple[int, Tuple[int, ...]], ...]]

    def __repr__(self) -> str:
        rows = sum(len(group) for group in self.by_symbol)
        return f"CompiledDTTA(states={self.num_states}, transitions={rows})"


def compile_dtta(automaton: "DTTA") -> CompiledDTTA:
    """Lower a :class:`~repro.automata.dtta.DTTA` into flat tables."""
    compiled = object.__new__(CompiledDTTA)
    compiled.source = automaton
    state_names = sorted(automaton.states, key=repr)
    state_ids = {name: index for index, name in enumerate(state_names)}
    symbol_names = sorted(automaton.alphabet, key=repr)
    symbol_ids = {name: index for index, name in enumerate(symbol_names)}
    compiled.state_names = state_names
    compiled.state_ids = state_ids
    compiled.symbol_names = symbol_names
    compiled.symbol_ids = symbol_ids
    compiled.num_states = len(state_names)
    compiled.initial_id = state_ids[automaton.initial]
    grouped: List[List[Tuple[int, Tuple[int, ...]]]] = [
        [] for _ in symbol_names
    ]
    for (state, symbol), children in sorted(
        automaton.transitions.items(), key=lambda kv: (repr(kv[0][0]), repr(kv[0][1]))
    ):
        grouped[symbol_ids[symbol]].append(
            (state_ids[state], tuple(state_ids[c] for c in children))
        )
    compiled.by_symbol = [tuple(group) for group in grouped]
    return compiled
