"""The earliest normal form (Section 3 of the paper).

A DTOP is *earliest* when every state's outputs have no common prefix
(``out_[[M]]q(ε) = ⊥``, Definition 8).  Following Engelfriet–Maneth–Seidl
(the paper's [12]), any DTOP (with a domain inspection automaton) can be
transformed into an earliest one:

1. compute, for every reachable pair ``(q, d)`` of a transducer state and
   a domain-automaton state, the tree ``out(q, d) = ⊔ {[[M]]_q(s) | s ∈
   L(D, d)}`` — a Kleene fixpoint from ``⊥``;
2. take as new states the triples ``(q, d, v)`` with ``v`` a ``⊥``-position
   of ``out(q, d)``: "state ``q`` on domain type ``d``, everything above
   ``v`` already emitted";
3. re-root the (prefix-filled) right-hand sides at ``v``.

The construction also realizes compatibility conditions (C1) (maximal
output relative to ``D``) and (C2) (no superfluous rules) of Section 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.automata.dtta import DTTA, State as DState
from repro.automata.ops import minimal_witness_trees
from repro.errors import TransducerError
from repro.trees.lcp import is_bottom, lcp
from repro.trees.tree import Tree
from repro.transducers.domain import effective_domain
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import Call, StateName

Pair = Tuple[StateName, DState]


@dataclass(frozen=True)
class EState:
    """An earliest-transducer state ``(q, d, v)``.

    ``q``: original transducer state; ``d``: domain-automaton state;
    ``v``: Dewey address of a ``⊥`` in ``out(q, d)``.
    """

    q: StateName
    d: DState
    v: Tuple[int, ...]

    def __str__(self) -> str:
        position = ".".join(map(str, self.v)) or "ε"
        return f"({self.q}@{self.d}|{position})"


@dataclass(frozen=True)
class _Marker:
    """Internal leaf marker used while filling right-hand sides."""

    q: StateName
    d: DState
    v: Tuple[int, ...]
    var: int


def reachable_pairs(transducer: DTOP, domain: DTTA) -> Set[Pair]:
    """All pairs ``(q, d)`` arising in the parallel run of ``M`` and ``D``.

    Raises :class:`TransducerError` if ``D`` allows a symbol for which a
    participating state has no rule — callers should pass the *effective*
    domain (:func:`repro.transducers.domain.effective_domain`) to avoid
    this.
    """
    initial = {
        (c.label.state, domain.initial)
        for _, c in transducer.axiom.subtrees()
        if isinstance(c.label, Call)
    }
    seen: Set[Pair] = set(initial)
    frontier: List[Pair] = list(initial)
    while frontier:
        q, d = frontier.pop()
        for symbol in domain.allowed_symbols(d):
            rhs = transducer.rhs(q, symbol)
            if rhs is None:
                raise TransducerError(
                    f"domain allows {symbol!r} at {d!r} but state {q!r} "
                    f"has no rule for it; pass the effective domain"
                )
            children = domain.transitions[(d, symbol)]
            for _, call in rhs.subtrees():
                if isinstance(call.label, Call):
                    pair = (call.label.state, children[call.label.var - 1])
                    if pair not in seen:
                        seen.add(pair)
                        frontier.append(pair)
    return seen


#: Instruction opcodes of the compiled fixpoint templates (postorder,
#: replayed with an operand stack — same shape as repro.engine.compile).
_FP_CONST = 0  # operand: a ground (call-free) output subtree
_FP_CALL = 1  # operand: the (q', d_i) pair whose table value to push
_FP_MAKE = 2  # operands: (label, arity)


def _compile_fixpoint_rhs(
    rhs: Tree, children: Tuple[DState, ...]
) -> Tuple[Tuple, ...]:
    """Flatten ``rhs[⟨q',x_i⟩ ← out(q',d_i)]`` into a postorder template.

    Call-free subtrees collapse to one ``_FP_CONST``; each call becomes a
    ``_FP_CALL`` naming the ``(q', d_i)`` table slot directly, so every
    fixpoint round replays the template iteratively instead of
    re-walking the rhs tree recursively.
    """
    # Imported at call time, like out_table's engine import (cycle note
    # there); shares the engine compiler's has-call analysis.
    from repro.engine.compile import _call_flags

    has_call = _call_flags(rhs)
    program: List[Tuple] = []
    walk: List[Tuple[Tree, bool]] = [(rhs, False)]
    while walk:
        node, expanded = walk.pop()
        if expanded:
            program.append((_FP_MAKE, node.label, len(node.children)))
            continue
        if not has_call[node.uid]:
            program.append((_FP_CONST, node))
            continue
        label = node.label
        if isinstance(label, Call):
            program.append((_FP_CALL, (label.state, children[label.var - 1])))
            continue
        walk.append((node, True))
        for child in reversed(node.children):
            walk.append((child, False))
    return tuple(program)


def _replay_fixpoint(program: Tuple[Tuple, ...], table: Dict[Pair, Tree]) -> Tree:
    """Instantiate one compiled template under the current table."""
    operands: List[Tree] = []
    push = operands.append
    for instruction in program:
        opcode = instruction[0]
        if opcode == _FP_CONST:
            push(instruction[1])
        elif opcode == _FP_CALL:
            push(table[instruction[1]])
        else:  # _FP_MAKE
            arity = instruction[2]
            if arity:
                made = Tree(instruction[1], tuple(operands[-arity:]))
                del operands[-arity:]
            else:
                made = Tree(instruction[1], ())
            push(made)
    return operands[-1]


def out_table(transducer: DTOP, domain: Optional[DTTA] = None) -> Dict[Pair, Tree]:
    """``out(q, d)`` for every reachable pair — the ``⊔`` of all outputs.

    ``domain`` defaults to the transducer's own effective domain.

    The defining equation ``out(q,d) = ⊔_f rhs(q,f)[⟨q',x_i⟩ ←
    out(q',d_i)]`` can have several fixpoints (a state whose every output
    is the same tree through recursion admits both the true constant and
    the trivial ``⊥``), and the *largest* one is the right value.  We
    therefore start from a concrete over-approximation — the actual
    output on a minimal witness tree of each domain state, evaluated on
    the compiled batch engine — and iterate downward to the greatest
    fixpoint below the start.

    The iteration is compiled: each (q, d, f) right-hand side is
    flattened **once** into a postorder instruction template over the
    shared hash-consed DAG (call-free subtrees collapse to constants,
    calls address table slots directly), and a worklist then re-evaluates
    only the pairs whose dependencies actually changed — chaotic
    iteration of a monotone decreasing operator, whose limit is
    order-independent and equal to the limit of the round-based Kleene
    sweep.
    """
    # Imported here: this module is pulled in by the package __init__,
    # before repro.engine (which imports repro.transducers.rhs) exists.
    from repro.engine import engine_for

    if domain is None:
        domain = effective_domain(transducer)
    pairs = reachable_pairs(transducer, domain)
    witnesses = minimal_witness_trees(domain)
    engine = engine_for(transducer)
    table: Dict[Pair, Tree] = {
        (q, d): engine.eval_state(q, witnesses[d]) for q, d in pairs
    }
    templates: Dict[Pair, List[Tuple[Tuple, ...]]] = {}
    dependents: Dict[Pair, List[Pair]] = {}
    for pair in pairs:
        q, d = pair
        programs: List[Tuple[Tuple, ...]] = []
        for symbol in domain.allowed_symbols(d):
            children = domain.transitions[(d, symbol)]
            program = _compile_fixpoint_rhs(transducer.rules[(q, symbol)], children)
            programs.append(program)
            for instruction in program:
                if instruction[0] == _FP_CALL:
                    dependents.setdefault(instruction[1], []).append(pair)
        templates[pair] = programs
    pending: List[Pair] = sorted(pairs, key=lambda qd: (str(qd[0]), repr(qd[1])))
    queued: Set[Pair] = set(pending)
    cursor = 0
    while cursor < len(pending):
        pair = pending[cursor]
        cursor += 1
        queued.discard(pair)
        current = table[pair]
        updated = current
        for program in templates[pair]:
            updated = lcp(updated, _replay_fixpoint(program, table))
            if is_bottom(updated):
                break  # ⊥ is the least element; no candidate lowers it
        if updated is not current:
            table[pair] = updated
            for dependent in dependents.get(pair, ()):
                if dependent not in queued:
                    queued.add(dependent)
                    pending.append(dependent)
    return table


def is_earliest(transducer: DTOP, domain: Optional[DTTA] = None) -> bool:
    """Definition 8 (relative to ``domain``): every state's ``out`` is ``⊥``.

    Unreachable (unproductive) states are ignored, matching the paper's
    productivity requirement.
    """
    table = out_table(transducer, domain)
    return all(is_bottom(prefix) for prefix in table.values())


def _fill(
    rhs: Tree,
    dstate_of_var: Callable[[int], DState],
    table: Dict[Pair, Tree],
) -> Tree:
    """Fill calls with their ``out`` prefixes, marking each ``⊥`` leaf.

    Every ``⟨q', x_i⟩`` becomes ``out(q', d_i)`` whose ``⊥`` leaves carry
    :class:`_Marker` labels remembering ``(q', d_i, position, i)``.
    """
    label = rhs.label
    if isinstance(label, Call):
        d = dstate_of_var(label.var)
        return _mark(table[(label.state, d)], label.state, d, label.var, ())
    if rhs.is_leaf:
        return rhs
    return Tree(
        label,
        tuple(_fill(c, dstate_of_var, table) for c in rhs.children),
    )


def _mark(prefix: Tree, q: StateName, d: DState, var: int, at: Tuple[int, ...]) -> Tree:
    if is_bottom(prefix):
        return Tree(_Marker(q, d, at, var), ())
    return Tree(
        prefix.label,
        tuple(
            _mark(child, q, d, var, at + (i,))
            for i, child in enumerate(prefix.children, start=1)
        ),
    )


def _subtree_at(node: Tree, position: Tuple[int, ...]) -> Tree:
    for index in position:
        node = node.children[index - 1]
    return node


def _markers_to_calls(node: Tree, name_of: Callable[[EState], StateName]) -> Tree:
    label = node.label
    if isinstance(label, _Marker):
        estate = EState(label.q, label.d, label.v)
        return Tree(Call(name_of(estate), label.var), ())
    if node.is_leaf:
        return node
    return Tree(
        label, tuple(_markers_to_calls(c, name_of) for c in node.children)
    )


def to_earliest(
    transducer: DTOP,
    domain: Optional[DTTA] = None,
    domain_is_effective: bool = False,
) -> Tuple[DTOP, DTTA, Dict[StateName, EState]]:
    """Construct an earliest DTOP equivalent to ``M`` on ``L(domain)``.

    Returns ``(E, D, info)`` where ``D`` is the effective domain used
    (minimal, trim), ``E`` is earliest and compatible with ``D`` in the
    sense of conditions (C1)/(C2), and ``info`` maps each state of ``E``
    to the :class:`EState` triple it denotes.

    States of ``E`` are strings ``"e0", "e1", …`` in deterministic
    discovery order.

    Pass ``domain_is_effective=True`` when ``domain`` is already the
    minimal trim automaton for ``dom([[M]]|L(domain))`` (avoids renaming
    its states).
    """
    if domain is None or not domain_is_effective:
        domain = effective_domain(transducer, domain)
    if not domain.transitions:
        # ``dom([[M]]|L(domain))`` is empty (a trim DTTA with no
        # transitions accepts nothing): there is no witness tree to
        # seed the out-table from, and nothing to be early *on*.  The
        # earliest machine is the nowhere-defined one — a single
        # rule-less state — trivially satisfying (C1)/(C2) on ∅.
        nowhere = DTOP(
            transducer.input_alphabet,
            transducer.output_alphabet,
            Tree(Call("e0", 0), ()),
            {},
        )
        return nowhere, domain, {"e0": EState(None, domain.initial, ())}
    table = out_table(transducer, domain)

    names: Dict[EState, StateName] = {}
    info: Dict[StateName, EState] = {}
    todo: List[EState] = []

    def name_of(estate: EState) -> StateName:
        if estate not in names:
            name = f"e{len(names)}"
            names[estate] = name
            info[name] = estate
            todo.append(estate)
        return names[estate]

    filled_axiom = _fill(
        transducer.axiom, lambda _var: domain.initial, table
    )
    axiom = _markers_to_calls(filled_axiom, name_of)

    rules: Dict[Tuple[StateName, str], Tree] = {}
    done: Set[EState] = set()
    while todo:
        estate = todo.pop(0)
        if estate in done:
            continue
        done.add(estate)
        for symbol in domain.allowed_symbols(estate.d):
            children = domain.transitions[(estate.d, symbol)]
            rhs = transducer.rules[(estate.q, symbol)]
            filled = _fill(rhs, lambda var: children[var - 1], table)
            rerooted = _subtree_at(filled, estate.v)
            rules[(names[estate], symbol)] = _markers_to_calls(rerooted, name_of)

    earliest = DTOP(
        transducer.input_alphabet,
        transducer.output_alphabet,
        axiom,
        rules,
    )
    return earliest, domain, info
