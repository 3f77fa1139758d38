"""The deterministic top-down tree automaton (DTTA).

The paper defines a DTTA as a DTOP realizing a partial identity — every
rule has the shape ``q(f(x1,…,xk)) → f(⟨q1,x1⟩,…,⟨qk,xk⟩)``.  We represent
it directly by its transition structure: a partial map
``(state, symbol) ↦ (child state, …)``.  Languages of DTTAs are exactly
the path-closed tree languages (Proposition 2).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Mapping, Optional, Tuple

from repro.errors import AutomatonError
from repro.trees.alphabet import RankedAlphabet, Symbol
from repro.trees.paths import Path
from repro.trees.tree import Tree

State = Hashable
Transitions = Mapping[Tuple[State, Symbol], Tuple[State, ...]]

#: Sentinel distinguishing "cached None" from "not cached".
_MISSING = object()


class DTTA:
    """A deterministic top-down tree automaton.

    Parameters
    ----------
    alphabet:
        The ranked input alphabet ``F``.
    initial:
        The initial state (processes the root).
    transitions:
        Partial map ``(state, f) ↦ (d1, …, dk)`` with ``k = rank(f)``.
        A tree is accepted iff the unique top-down run is everywhere
        defined.

    The state set is implicit: every state mentioned in ``initial`` or the
    transitions.  Determinism is structural (it is a map).
    """

    __slots__ = (
        "alphabet",
        "initial",
        "transitions",
        "_states",
        "_path_cache",
        "_allowed_cache",
        "_engine",
        "_canonical",
    )

    def __init__(
        self,
        alphabet: RankedAlphabet,
        initial: State,
        transitions: Transitions,
    ):
        checked: Dict[Tuple[State, Symbol], Tuple[State, ...]] = {}
        states = {initial}
        for (state, symbol), children in transitions.items():
            children = tuple(children)
            if symbol not in alphabet:
                raise AutomatonError(f"transition uses unknown symbol {symbol!r}")
            if len(children) != alphabet.rank(symbol):
                raise AutomatonError(
                    f"transition ({state!r}, {symbol!r}) has {len(children)} "
                    f"children but rank({symbol!r}) = {alphabet.rank(symbol)}"
                )
            checked[(state, symbol)] = children
            states.add(state)
            states.update(children)
        self.alphabet = alphabet
        self.initial = initial
        self.transitions: Dict[Tuple[State, Symbol], Tuple[State, ...]] = checked
        self._states: FrozenSet[State] = frozenset(states)
        # Memo for state_at_path; sound because nothing mutates a DTTA
        # after construction.
        self._path_cache: Dict[Path, Optional[State]] = {}
        self._allowed_cache: Dict[State, Tuple[Symbol, ...]] = {}
        # Lazily compiled batch engine (repro.engine.automaton_engine_for).
        self._engine = None
        # Memoized canonical form (repro.automata.ops.canonical_form);
        # sound because a DTTA is immutable after construction.
        self._canonical = None

    @property
    def states(self) -> FrozenSet[State]:
        return self._states

    def allowed_symbols(self, state: State) -> Tuple[Symbol, ...]:
        """Symbols ``f`` with a transition from ``state``, sorted.  Cached."""
        cached = self._allowed_cache.get(state)
        if cached is None:
            cached = tuple(
                sorted(s for (d, s) in self.transitions if d == state)
            )
            self._allowed_cache[state] = cached
        return cached

    def step(self, state: State, symbol: Symbol) -> Optional[Tuple[State, ...]]:
        """The child states for ``(state, symbol)``, or ``None``."""
        return self.transitions.get((state, symbol))

    def accepts_from(self, state: State, node: Tree) -> bool:
        """Does the run from ``state`` succeed on ``node``?

        The run is deterministic and top-down, so it visits each input
        position once; batch membership over overlapping inputs belongs
        to the compiled :class:`~repro.engine.execute.AutomatonEngine`.
        """
        children = self.transitions.get((state, node.label))
        return (
            children is not None
            and len(children) == len(node.children)
            and all(
                self.accepts_from(child_state, child)
                for child_state, child in zip(children, node.children)
            )
        )

    def accepts(self, node: Tree) -> bool:
        """Membership in ``L(A)``."""
        return self.accepts_from(self.initial, node)

    def state_at_path(self, path: Path) -> Optional[State]:
        """The state processing the node addressed by a labeled path.

        Returns ``None`` if the path is not consistent with the automaton
        (no tree of ``L(A)`` can contain it — necessary condition only:
        child emptiness is not checked here; use a trimmed automaton to
        make it exact).

        Memoized per automaton: the learner probes the same io-path
        prefixes once per merge candidate, and each distinct path now
        walks the transitions once.
        """
        cached = self._path_cache.get(path, _MISSING)
        if cached is not _MISSING:
            return cached
        state: Optional[State] = self.initial
        for label, index in path:
            children = self.transitions.get((state, label))
            if children is None or not 1 <= index <= len(children):
                state = None
                break
            state = children[index - 1]
        self._path_cache[path] = state
        return state

    def rename(self, mapping: Mapping[State, State]) -> "DTTA":
        """Return an isomorphic copy with states renamed by ``mapping``."""

        def name(state: State) -> State:
            return mapping.get(state, state)

        return DTTA(
            self.alphabet,
            name(self.initial),
            {
                (name(d), f): tuple(name(c) for c in children)
                for (d, f), children in self.transitions.items()
            },
        )

    def __repr__(self) -> str:
        return (
            f"DTTA(states={len(self._states)}, "
            f"transitions={len(self.transitions)}, initial={self.initial!r})"
        )

    def describe(self) -> str:
        """Multi-line human-readable listing of the transitions."""
        lines = [f"initial: {self.initial!r}"]
        for (state, symbol), children in sorted(
            self.transitions.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        ):
            args = ", ".join(repr(c) for c in children)
            lines.append(f"  {state!r} --{symbol}--> ({args})")
        return "\n".join(lines)
