"""The deterministic top-down tree transducer (Definition 1).

A :class:`DTOP` is a tuple ``(Q, F, G, ax, rhs)``.  Evaluation follows the
recursive definition of ``[[M]]_q`` literally: it is the executable spec
the compiled :class:`~repro.engine.execute.Engine` is tested against.
Each :meth:`DTOP.apply` / :meth:`DTOP.eval_state` call memoizes on
``(state, input-node uid)`` for its own duration, so an input with shared
subtrees (trees are interned, :mod:`repro.trees.tree`) is translated once
per distinct ``(state, subtree)`` pair, and the interned output is
already its own minimal DAG: the paper's monadic-to-full-binary example
runs in time linear in the input.  Nothing outlives the call; the
engine keeps the persistent, bounded memo.

A :class:`DTOP` is immutable after construction (treat ``rules`` as
frozen): its compiled engine is built once and never goes stale.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from repro.errors import TransducerError, UndefinedTransductionError
from repro.trees.alphabet import RankedAlphabet, Symbol
from repro.trees.tree import Tree
from repro.transducers.rhs import Call, StateName, calls_in, is_call

RuleKey = Tuple[StateName, Symbol]

#: One evaluation's memo: ``(state, input-node uid)`` → output tree.
Memo = Dict[Tuple[StateName, int], Tree]


class DTOP:
    """A deterministic top-down tree transducer ``(Q, F, G, ax, rhs)``.

    Parameters
    ----------
    input_alphabet, output_alphabet:
        The ranked alphabets ``F`` and ``G``.
    axiom:
        A tree over ``T_G(Q × {x0})`` — calls must use variable 0.
    rules:
        Partial map ``(q, f) ↦ rhs`` with rhs over ``T_G(Q × X_k)`` where
        ``k = rank(f)`` — calls use variables ``1…k``.

    The state set is implicit (every state mentioned anywhere); pass
    ``states`` to require extra (possibly unused) states.
    """

    __slots__ = (
        "input_alphabet",
        "output_alphabet",
        "axiom",
        "rules",
        "_states",
        "_engine",
    )

    def __init__(
        self,
        input_alphabet: RankedAlphabet,
        output_alphabet: RankedAlphabet,
        axiom: Tree,
        rules: Mapping[RuleKey, Tree],
        states: Iterable[StateName] = (),
    ):
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.axiom = axiom
        self.rules: Dict[RuleKey, Tree] = dict(rules)
        found: Set[StateName] = set(states)
        for _, axiom_call in calls_in(axiom):
            if axiom_call.var != 0:
                raise TransducerError(
                    f"axiom call {axiom_call} must use x0"
                )
            found.add(axiom_call.state)
        for (state, symbol), rhs in self.rules.items():
            if symbol not in input_alphabet:
                raise TransducerError(f"rule on unknown input symbol {symbol!r}")
            rank = input_alphabet.rank(symbol)
            found.add(state)
            for _, rule_call in calls_in(rhs):
                if not 1 <= rule_call.var <= max(rank, 0):
                    raise TransducerError(
                        f"rule ({state!r}, {symbol!r}) uses x{rule_call.var} "
                        f"but rank({symbol!r}) = {rank}"
                    )
                found.add(rule_call.state)
        self._states: FrozenSet[StateName] = frozenset(found)
        # Lazily compiled batch engine (repro.engine.engine_for).
        self._engine = None
        self._check_output_ranks(axiom)
        for rhs in self.rules.values():
            self._check_output_ranks(rhs)

    def _check_output_ranks(self, node: Tree) -> None:
        if is_call(node):
            return
        if node.label not in self.output_alphabet:
            raise TransducerError(f"unknown output symbol {node.label!r}")
        if self.output_alphabet.rank(node.label) != node.arity:
            raise TransducerError(
                f"output symbol {node.label!r} used with arity {node.arity}, "
                f"declared rank {self.output_alphabet.rank(node.label)}"
            )
        for child in node.children:
            self._check_output_ranks(child)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def states(self) -> FrozenSet[StateName]:
        return self._states

    @property
    def size(self) -> int:
        """Total size: axiom plus all right-hand sides (node counts)."""
        return self.axiom.size + sum(rhs.size for rhs in self.rules.values())

    def rhs(self, state: StateName, symbol: Symbol) -> Optional[Tree]:
        """``rhs(q, f)`` or ``None`` when undefined."""
        return self.rules.get((state, symbol))

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def eval_state(self, state: StateName, node: Tree) -> Tree:
        """``[[M]]_q(s)``; raises when undefined."""
        return self._eval(state, node, {})

    def _eval(self, state: StateName, node: Tree, memo: Memo) -> Tree:
        key = (state, node.uid)
        cached = memo.get(key)
        if cached is not None:
            return cached
        rhs = self.rules.get((state, node.label))
        if rhs is None:
            raise UndefinedTransductionError(
                f"no rule for state {state!r} on symbol {node.label!r}"
            )
        result = self._instantiate(rhs, node, memo)
        memo[key] = result
        return result

    def _instantiate(self, rhs: Tree, node: Tree, memo: Memo) -> Tree:
        label = rhs.label
        if isinstance(label, Call):
            return self._eval(label.state, node.children[label.var - 1], memo)
        if rhs.is_leaf:
            return rhs
        return Tree(
            label,
            tuple(self._instantiate(child, node, memo) for child in rhs.children),
        )

    def apply(self, node: Tree) -> Tree:
        """``[[M]](s)``: instantiate the axiom on the whole input.

        Raises :class:`UndefinedTransductionError` outside the domain.
        """
        return self._instantiate_axiom(self.axiom, node, {})

    def _instantiate_axiom(self, part: Tree, node: Tree, memo: Memo) -> Tree:
        label = part.label
        if isinstance(label, Call):
            return self._eval(label.state, node, memo)
        if part.is_leaf:
            return part
        return Tree(
            label,
            tuple(self._instantiate_axiom(c, node, memo) for c in part.children),
        )

    def try_apply(self, node: Tree) -> Optional[Tree]:
        """``[[M]](s)`` or ``None`` when the input is outside the domain."""
        try:
            return self.apply(node)
        except UndefinedTransductionError:
            return None

    def defined_on(self, node: Tree) -> bool:
        """Membership of ``s`` in ``dom([[M]])``."""
        return self._defined(frozenset(c.state for _, c in calls_in(self.axiom)), node)

    def _defined(self, states: FrozenSet[StateName], node: Tree) -> bool:
        needed: Dict[int, Set[StateName]] = {}
        for state in states:
            rhs = self.rules.get((state, node.label))
            if rhs is None:
                return False
            for _, rule_call in calls_in(rhs):
                needed.setdefault(rule_call.var, set()).add(rule_call.state)
        return all(
            self._defined(frozenset(sub_states), node.children[var - 1])
            for var, sub_states in needed.items()
        )

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def rename(self, mapping: Mapping[StateName, StateName]) -> "DTOP":
        """Isomorphic copy with states renamed by ``mapping``.

        Renaming cannot invalidate a well-formed machine, so the copy is
        built directly (no re-validation).
        """

        def rename_tree(node: Tree) -> Tree:
            label = node.label
            if isinstance(label, Call):
                return Tree(Call(mapping.get(label.state, label.state), label.var), ())
            return Tree(label, tuple(rename_tree(c) for c in node.children))

        clone: DTOP = object.__new__(DTOP)
        clone.input_alphabet = self.input_alphabet
        clone.output_alphabet = self.output_alphabet
        clone.axiom = rename_tree(self.axiom)
        clone.rules = {
            (mapping.get(q, q), f): rename_tree(rhs)
            for (q, f), rhs in self.rules.items()
        }
        clone._states = frozenset(mapping.get(q, q) for q in self._states)
        clone._engine = None
        return clone

    def __repr__(self) -> str:
        return (
            f"DTOP(states={len(self._states)}, rules={len(self.rules)}, "
            f"size={self.size})"
        )

    def describe(self) -> str:
        """Human-readable listing in the paper's rule notation."""
        lines = [f"axiom: {self.axiom}"]
        for (state, symbol), rhs in sorted(
            self.rules.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        ):
            rank = self.input_alphabet.rank(symbol)
            variables = ", ".join(f"x{i}" for i in range(1, rank + 1))
            pattern = f"{symbol}({variables})" if rank else symbol
            lines.append(f"  {state}({pattern}) → {rhs}")
        return "\n".join(lines)
