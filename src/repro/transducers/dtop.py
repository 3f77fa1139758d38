"""The deterministic top-down tree transducer (Definition 1).

A :class:`DTOP` is a tuple ``(Q, F, G, ax, rhs)``.  Evaluation follows the
recursive definition of ``[[M]]_q`` literally, with **persistent**
memoization on ``(state, input-node uid)``: because trees are interned
(:mod:`repro.trees.tree`), a subtree shared between two inputs — or
between two runs — is recognized by identity and translated once over the
transducer's lifetime.  The learner's inner loops (RPNI merging,
equivalence checks, characteristic-sample generation) evaluate the same
machine on heavily overlapping inputs, which is exactly the access
pattern this cache serves; :attr:`DTOP.cache_stats` exposes the hit/miss
counters and :meth:`DTOP.clear_caches` drops the memo.

The cache is sound because a :class:`DTOP` is immutable after
construction (treat ``rules`` as frozen — mutating it invalidates the
memo) and tree uids are never reused.  For outputs that are exponentially
larger than the input (the paper's monadic-to-full-binary example),
:meth:`DTOP.apply_dag` evaluates straight into a minimal DAG in time
linear in the input size.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Set, Tuple

from repro.errors import TransducerError, UndefinedTransductionError
from repro.trees.alphabet import RankedAlphabet, Symbol
from repro.trees.dag import Dag, DagNode
from repro.trees.tree import Tree
from repro.transducers.rhs import Call, StateName, calls_in, is_call

RuleKey = Tuple[StateName, Symbol]


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
        "_memo",
        "_memo_stats",
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
        # Persistent run memo: (state, input-node uid) → output tree.
        # Sound because the transducer and the interned trees are
        # immutable; uids are never reused.
        self._memo: Dict[Tuple[StateName, int], Tree] = {}
        self._memo_stats: Dict[str, int] = {"hits": 0, "misses": 0}
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
        """``[[M]]_q(s)`` through the persistent memo; raises when undefined.

        Results are cached for the lifetime of the transducer, keyed by
        ``(q, s.uid)`` — repeated evaluation on shared subtrees (across
        *different* top-level calls) is O(1).  Failures are not cached.
        """
        key = (state, node.uid)
        cached = self._memo.get(key)
        if cached is not None:
            self._memo_stats["hits"] += 1
            return cached
        self._memo_stats["misses"] += 1
        rhs = self.rules.get((state, node.label))
        if rhs is None:
            raise UndefinedTransductionError(
                f"no rule for state {state!r} on symbol {node.label!r}"
            )
        result = self._instantiate(rhs, node)
        self._memo[key] = result
        return result

    def apply_state(self, state: StateName, node: Tree) -> Tree:
        """``[[M]]_q(s)``; raises when undefined.  Alias of :meth:`eval_state`."""
        return self.eval_state(state, node)

    def _instantiate(self, rhs: Tree, node: Tree) -> Tree:
        label = rhs.label
        if isinstance(label, Call):
            return self.eval_state(label.state, node.children[label.var - 1])
        if rhs.is_leaf:
            return rhs
        return Tree(
            label,
            tuple(self._instantiate(child, node) for child in rhs.children),
        )

    def apply(self, node: Tree) -> Tree:
        """``[[M]](s)``: instantiate the axiom on the whole input.

        Raises :class:`UndefinedTransductionError` outside the domain.
        """
        return self._instantiate_axiom(self.axiom, node)

    def _instantiate_axiom(self, part: Tree, node: Tree) -> Tree:
        label = part.label
        if isinstance(label, Call):
            return self.eval_state(label.state, node)
        if part.is_leaf:
            return part
        return Tree(
            label,
            tuple(self._instantiate_axiom(c, node) for c in part.children),
        )

    @property
    def cache_stats(self) -> Dict[str, int]:
        """Persistent-memo counters: ``hits``, ``misses``, ``entries``."""
        return {**self._memo_stats, "entries": len(self._memo)}

    def clear_caches(self) -> None:
        """Drop the persistent run memo and zero its counters.

        Only needed to release memory (long-lived transducers applied to
        many unrelated inputs) — never for correctness.  Also drops the
        compiled engine *entirely* (tables and memo): every engine handle
        derived from this machine — including per-shard engines held by a
        live :class:`~repro.serve.service.TransformService` pool, which
        compare the handle at each dispatch — is invalidated, so a
        machine whose ``rules`` were mutated behind the documented
        immutability contract can never keep serving stale tables.  The
        next evaluation recompiles (compilation is linear and cheap).
        """
        self._memo.clear()
        self._memo_stats["hits"] = 0
        self._memo_stats["misses"] = 0
        if self._engine is not None:
            self._engine.clear_cache()
            self._engine = None

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
    # DAG-producing evaluation (linear time in the input size)
    # ------------------------------------------------------------------

    def apply_dag(self, node: Tree, pool: Optional[Dag] = None) -> DagNode:
        """``[[M]](s)`` as a hash-consed DAG node.

        Runs in time O(|s| · |M|): each (state, input-subtree) pair is
        translated once and shared, so outputs exponentially larger than
        the input stay polynomial in memory.
        """
        pool = pool if pool is not None else Dag()
        memo: Dict[Tuple[StateName, int], DagNode] = {}

        def eval_state(state: StateName, current: Tree) -> DagNode:
            key = (state, current.uid)
            cached = memo.get(key)
            if cached is not None:
                return cached
            rhs = self.rules.get((state, current.label))
            if rhs is None:
                raise UndefinedTransductionError(
                    f"no rule for state {state!r} on symbol {current.label!r}"
                )
            result = instantiate(rhs, current)
            memo[key] = result
            return result

        def instantiate(rhs: Tree, current: Tree) -> DagNode:
            label = rhs.label
            if isinstance(label, Call):
                return eval_state(label.state, current.children[label.var - 1])
            return pool.make(
                label, tuple(instantiate(child, current) for child in rhs.children)
            )

        def instantiate_axiom(part: Tree) -> DagNode:
            label = part.label
            if isinstance(label, Call):
                return eval_state(label.state, node)
            return pool.make(
                label, tuple(instantiate_axiom(child) for child in part.children)
            )

        return instantiate_axiom(self.axiom)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def rename(self, mapping: Mapping[StateName, StateName]) -> "DTOP":
        """Isomorphic copy with states renamed by ``mapping``.

        Renaming cannot invalidate a well-formed machine, so the copy is
        built directly (no re-validation) with a fresh run memo.
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
        clone._memo = {}
        clone._memo_stats = {"hits": 0, "misses": 0}
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
