"""Operations on DTTAs: emptiness, trimming, minimization, products.

Minimization of a deterministic top-down automaton is partition
refinement: two states are language-equivalent iff they allow the same
symbols and, recursively, their children are pairwise equivalent.  The
result, after canonical renaming, is the unique minimal DTTA for the
language — the representation-independent "domain" object Section 7 of
the paper compares transducers against.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.automata.dtta import DTTA, State
from repro.trees.alphabet import Symbol
from repro.trees.tree import Tree


def nonempty_states(automaton: DTTA) -> FrozenSet[State]:
    """States ``d`` with ``L(A, d) ≠ ∅`` (least fixpoint)."""
    nonempty: Set[State] = set()
    changed = True
    while changed:
        changed = False
        for (state, _symbol), children in automaton.transitions.items():
            if state in nonempty:
                continue
            if all(child in nonempty for child in children):
                nonempty.add(state)
                changed = True
    return frozenset(nonempty)


def reachable_states(automaton: DTTA) -> FrozenSet[State]:
    """States reachable from the initial state through transitions."""
    seen: Set[State] = {automaton.initial}
    frontier = [automaton.initial]
    while frontier:
        state = frontier.pop()
        for (origin, _symbol), children in automaton.transitions.items():
            if origin != state:
                continue
            for child in children:
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
    return frozenset(seen)


def trim(automaton: DTTA) -> DTTA:
    """Remove useless structure.

    Drops every transition that mentions a state with empty language, then
    restricts to states reachable from the initial state.  The language is
    unchanged.  If ``L(A) = ∅`` the result has the initial state and no
    transitions.
    """
    alive = nonempty_states(automaton)
    transitions = {
        (state, symbol): children
        for (state, symbol), children in automaton.transitions.items()
        if state in alive and all(child in alive for child in children)
    }
    pruned = DTTA(automaton.alphabet, automaton.initial, transitions)
    reachable = reachable_states(pruned)
    transitions = {
        (state, symbol): children
        for (state, symbol), children in pruned.transitions.items()
        if state in reachable
    }
    return DTTA(automaton.alphabet, automaton.initial, transitions)


def _refine(automaton: DTTA) -> Dict[State, int]:
    """Partition refinement: block ids such that equal block ⇔ equal language.

    Assumes ``automaton`` is trimmed (no empty states participate).
    """
    states = sorted(automaton.states, key=repr)
    # Initial partition: by the set of allowed symbols.
    block: Dict[State, int] = {}
    signature_to_block: Dict[object, int] = {}
    for state in states:
        signature = automaton.allowed_symbols(state)
        if signature not in signature_to_block:
            signature_to_block[signature] = len(signature_to_block)
        block[state] = signature_to_block[signature]
    while True:
        signature_to_block = {}
        new_block: Dict[State, int] = {}
        for state in states:
            signature = tuple(
                (symbol, tuple(block[c] for c in automaton.transitions[(state, symbol)]))
                for symbol in automaton.allowed_symbols(state)
            )
            key = (block[state], signature)
            if key not in signature_to_block:
                signature_to_block[key] = len(signature_to_block)
            new_block[state] = signature_to_block[key]
        if new_block == block:
            return block
        block = new_block


def minimize(automaton: DTTA) -> DTTA:
    """The minimal trimmed DTTA for ``L(A)`` (states = language classes)."""
    trimmed = trim(automaton)
    if not trimmed.transitions:
        return trimmed
    block = _refine(trimmed)
    representative: Dict[int, State] = {}
    for state in sorted(trimmed.states, key=repr):
        representative.setdefault(block[state], state)
    transitions = {}
    for (state, symbol), children in trimmed.transitions.items():
        if representative[block[state]] != state:
            continue
        transitions[(block[state], symbol)] = tuple(block[c] for c in children)
    return DTTA(trimmed.alphabet, block[trimmed.initial], transitions)


def canonical_form(automaton: DTTA) -> DTTA:
    """Minimize and rename states ``0, 1, 2, …`` in deterministic BFS order.

    Two DTTAs accept the same language iff their canonical forms are equal
    (same initial state, same transition map).

    Memoized per instance (DTTAs are immutable): repeated learning runs
    over the same domain automaton — every active-learning round calls
    this — canonicalize once and share the result, which also shares the
    result's compiled membership engine and path caches.
    """
    cached = automaton._canonical
    if cached is not None:
        return cached
    minimal = minimize(automaton)
    order: Dict[State, int] = {minimal.initial: 0}
    queue: List[State] = [minimal.initial]
    while queue:
        state = queue.pop(0)
        for symbol in minimal.allowed_symbols(state):
            for child in minimal.transitions[(state, symbol)]:
                if child not in order:
                    order[child] = len(order)
                    queue.append(child)
    result = minimal.rename(order)
    result._canonical = result
    automaton._canonical = result
    return result


def equivalent(left: DTTA, right: DTTA) -> bool:
    """Language equality of two DTTAs (over any alphabets)."""
    a = canonical_form(left)
    b = canonical_form(right)
    return a.initial == b.initial and a.transitions == b.transitions


def product(left: DTTA, right: DTTA) -> DTTA:
    """A DTTA for ``L(left) ∩ L(right)`` (pair construction)."""
    alphabet = left.alphabet.merge(right.alphabet)
    initial = (left.initial, right.initial)
    transitions: Dict[Tuple[State, Symbol], Tuple[State, ...]] = {}
    frontier = [initial]
    seen = {initial}
    while frontier:
        state = frontier.pop()
        l_state, r_state = state
        for symbol in left.allowed_symbols(l_state):
            l_children = left.transitions[(l_state, symbol)]
            r_children = right.step(r_state, symbol)
            if r_children is None:
                continue
            children = tuple(zip(l_children, r_children))
            transitions[(state, symbol)] = children
            for child in children:
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
    return DTTA(alphabet, initial, transitions)


def minimal_witness_trees(automaton: DTTA) -> Dict[State, Tree]:
    """For every non-empty state ``d``, a smallest tree in ``L(A, d)``.

    Dijkstra on tree size: repeatedly settle the state whose best-known
    witness is smallest.  Ties are broken deterministically by the term
    text, so the result is reproducible.
    """
    witness: Dict[State, Tree] = {}
    # Candidate heap entries: (size, tiebreak, state, tree)
    heap: List[Tuple[int, str, int, State, Tree]] = []
    counter = itertools.count()

    def push_candidates() -> None:
        for (state, symbol), children in automaton.transitions.items():
            if state in witness:
                continue
            if all(child in witness for child in children):
                candidate = Tree(symbol, tuple(witness[c] for c in children))
                heapq.heappush(
                    heap,
                    (candidate.size, str(candidate), next(counter), state, candidate),
                )

    push_candidates()
    while heap:
        _size, _text, _tick, state, candidate = heapq.heappop(heap)
        if state in witness:
            continue
        witness[state] = candidate
        push_candidates()
    return witness


def enumerate_language(
    automaton: DTTA, state: Optional[State] = None, limit: int = 100
) -> Iterator[Tree]:
    """Yield up to ``limit`` members of ``L(A, state)`` by increasing size."""
    if state is None:
        state = automaton.initial
    # Per-state lists of known trees, grown level by level on demand.
    known: Dict[State, List[Tree]] = {d: [] for d in automaton.states}
    produced: Dict[State, Set[Tree]] = {d: set() for d in automaton.states}
    emitted = 0
    for _round in range(limit + 2):
        new_by_state: Dict[State, List[Tree]] = {d: [] for d in automaton.states}
        for (d, symbol), children in sorted(
            automaton.transitions.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        ):
            pools = [known[c] for c in children]
            if children and not all(pools):
                # Some child state not yet inhabited at this round.
                continue
            for combo in itertools.product(*pools) if children else [()]:
                candidate = Tree(symbol, combo)
                if candidate not in produced[d]:
                    new_by_state[d].append(candidate)
                    produced[d].add(candidate)
        progressed = False
        for d, fresh in new_by_state.items():
            if fresh:
                progressed = True
                known[d].extend(fresh)
                if d == state:
                    for item in sorted(fresh, key=lambda t: (t.size, str(t))):
                        yield item
                        emitted += 1
                        if emitted >= limit:
                            return
        if not progressed:
            return
