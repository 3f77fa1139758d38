"""Witness inputs that separate states of a canonical transducer.

Two kinds of evidence trees feed the characteristic sample:

* a **witness pair** for a state ``q``: two domain-typed inputs whose
  ``q``-outputs differ at the output root.  Existence is exactly the
  earliest property (``out_[[M]]q(ε) = ⊥``, Definition 8).
* a **distinguishing input** for two inequivalent states with the same
  restricted domain: an input on which their outputs differ.  Existence
  for distinct canonical states follows from minimality (Theorem 28).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.automata.dtta import State as DState
from repro.automata.ops import minimal_witness_trees
from repro.engine import engine_for
from repro.errors import TransducerError
from repro.trees.tree import Tree
from repro.transducers.minimize import CanonicalDTOP
from repro.transducers.rhs import Call, StateName


def _fill_children(
    canonical: CanonicalDTOP,
    symbol: str,
    dstate: DState,
    min_trees: Dict[DState, Tree],
    overrides: Dict[int, Tree],
) -> Tree:
    """Input tree ``symbol(…)`` with minimal subtrees, some overridden."""
    children_d = canonical.domain.transitions[(dstate, symbol)]
    children = [
        overrides.get(i, min_trees[d]) for i, d in enumerate(children_d, start=1)
    ]
    return Tree(symbol, tuple(children))


def root_realizers(
    canonical: CanonicalDTOP, min_trees: Optional[Dict[DState, Tree]] = None
) -> Dict[StateName, Dict[str, Tree]]:
    """For each state, a map «output root symbol → input tree realizing it».

    Fixpoint: a rule whose rhs is rooted by an output symbol realizes that
    symbol directly; a rule whose rhs is a single state call inherits the
    realizers of the called state.
    """
    if min_trees is None:
        min_trees = minimal_witness_trees(canonical.domain)
    dtop = canonical.dtop
    realizers: Dict[StateName, Dict[str, Tree]] = {q: {} for q in dtop.states}
    changed = True
    while changed:
        changed = False
        for (state, symbol), rhs in sorted(
            dtop.rules.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
        ):
            dstate = canonical.state_domain[state]
            if symbol not in canonical.domain.allowed_symbols(dstate):
                continue
            if isinstance(rhs.label, Call):
                called, var = rhs.label.state, rhs.label.var
                for root, sub in realizers[called].items():
                    if root not in realizers[state]:
                        realizers[state][root] = _fill_children(
                            canonical, symbol, dstate, min_trees, {var: sub}
                        )
                        changed = True
            else:
                root = rhs.label
                if root not in realizers[state]:
                    realizers[state][root] = _fill_children(
                        canonical, symbol, dstate, min_trees, {}
                    )
                    changed = True
    return realizers


def witness_pairs(
    canonical: CanonicalDTOP, min_trees: Optional[Dict[DState, Tree]] = None
) -> Dict[StateName, Tuple[Tree, Tree]]:
    """Two inputs per state whose outputs differ at the output root.

    Raises :class:`TransducerError` if some state realizes fewer than two
    root symbols — the transducer would then not be earliest.
    """
    realizers = root_realizers(canonical, min_trees)
    pairs: Dict[StateName, Tuple[Tree, Tree]] = {}
    for state, by_root in realizers.items():
        if len(by_root) < 2:
            raise TransducerError(
                f"state {state!r} realizes roots {sorted(by_root)}; "
                f"an earliest transducer state must realize at least two"
            )
        first, second = sorted(by_root)[:2]
        pairs[state] = (by_root[first], by_root[second])
    return pairs


def _output_root(canonical: CanonicalDTOP, state: StateName, tree: Tree) -> str:
    return engine_for(canonical.dtop).eval_state(state, tree).label


def _pick_with_root_other_than(
    canonical: CanonicalDTOP,
    state: StateName,
    witnesses: Dict[StateName, Tuple[Tree, Tree]],
    forbidden: str,
) -> Tree:
    """A witness input for ``state`` whose output root differs from ``forbidden``."""
    for candidate in witnesses[state]:
        if _output_root(canonical, state, candidate) != forbidden:
            return candidate
    raise TransducerError(
        f"witness pair of {state!r} does not realize two distinct roots"
    )


def distinguishing_inputs(
    canonical: CanonicalDTOP,
) -> Dict[Tuple[StateName, StateName], Tree]:
    """A separating input for every pair of same-domain distinct states.

    Returns a symmetric map: for states ``q1 ≠ q2`` with equal restricted
    domains, ``result[(q1, q2)]`` is an input tree ``s`` (in that common
    domain) with ``[[M]]_{q1}(s) ≠ [[M]]_{q2}(s)``.  Every such pair of a
    canonical transducer is separable; pairs with different domains are
    omitted (the learner separates them through the domain automaton).

    The computation is a backward fixpoint: a pair is *directly*
    separable when some rule pair diverges structurally (different output
    symbols, different variables, or symbol vs. call); otherwise it
    depends on the pairs of states called at the same position, and a
    separating input is assembled around the sub-witness.
    """
    dtop = canonical.dtop
    domain = canonical.domain
    min_trees = minimal_witness_trees(domain)
    witnesses = witness_pairs(canonical, min_trees)
    states = sorted(dtop.states, key=str)
    todo: List[Tuple[StateName, StateName]] = [
        (a, b)
        for i, a in enumerate(states)
        for b in states[i + 1 :]
        if canonical.state_domain[a] == canonical.state_domain[b]
    ]
    found: Dict[Tuple[StateName, StateName], Tree] = {}

    def record(a: StateName, b: StateName, tree: Tree) -> None:
        found[(a, b)] = tree
        found[(b, a)] = tree

    def compare(
        node_a: Tree, node_b: Tree, symbol: str, dstate: DState
    ) -> Tuple[Optional[Tree], List[Tuple[StateName, StateName, int]]]:
        """Walk two rhs trees in parallel.

        Returns ``(direct_witness, dependencies)``: a ready separating
        input if the trees diverge structurally, else the list of
        same-position state-call pairs the separation may go through.
        """
        deps: List[Tuple[StateName, StateName, int]] = []

        def walk(na: Tree, nb: Tree) -> Optional[Tree]:
            call_a = na.label if isinstance(na.label, Call) else None
            call_b = nb.label if isinstance(nb.label, Call) else None
            if call_a and call_b:
                if call_a.var == call_b.var:
                    if call_a.state != call_b.state:
                        deps.append((call_a.state, call_b.state, call_a.var))
                    return None
                # Different variables: fix variable var_b's subtree, vary var_a's.
                fixed = min_trees[
                    domain.transitions[(dstate, symbol)][call_b.var - 1]
                ]
                fixed_root = _output_root(canonical, call_b.state, fixed)
                moving = _pick_with_root_other_than(
                    canonical, call_a.state, witnesses, fixed_root
                )
                return _fill_children(
                    canonical,
                    symbol,
                    dstate,
                    min_trees,
                    {call_a.var: moving, call_b.var: fixed},
                )
            if call_a and not call_b:
                moving = _pick_with_root_other_than(
                    canonical, call_a.state, witnesses, nb.label
                )
                return _fill_children(
                    canonical, symbol, dstate, min_trees, {call_a.var: moving}
                )
            if call_b and not call_a:
                moving = _pick_with_root_other_than(
                    canonical, call_b.state, witnesses, na.label
                )
                return _fill_children(
                    canonical, symbol, dstate, min_trees, {call_b.var: moving}
                )
            if na.label != nb.label:
                return _fill_children(canonical, symbol, dstate, min_trees, {})
            for child_a, child_b in zip(na.children, nb.children):
                direct = walk(child_a, child_b)
                if direct is not None:
                    return direct
            return None

        return walk(node_a, node_b), deps

    # Round 1: direct separations; remember dependencies for the fixpoint.
    pending: Dict[Tuple[StateName, StateName], List[Tuple[str, StateName, StateName, int]]] = {}
    for a, b in todo:
        dstate = canonical.state_domain[a]
        dependencies: List[Tuple[str, StateName, StateName, int]] = []
        for symbol in domain.allowed_symbols(dstate):
            rhs_a = dtop.rules[(a, symbol)]
            rhs_b = dtop.rules[(b, symbol)]
            direct, deps = compare(rhs_a, rhs_b, symbol, dstate)
            if direct is not None:
                record(a, b, direct)
                break
            dependencies.extend((symbol, qa, qb, var) for qa, qb, var in deps)
        else:
            pending[(a, b)] = dependencies

    # Fixpoint: lift sub-witnesses through the dependency edges.
    changed = True
    while changed and pending:
        changed = False
        for (a, b), dependencies in list(pending.items()):
            dstate = canonical.state_domain[a]
            for symbol, qa, qb, var in dependencies:
                sub = found.get((qa, qb))
                if sub is None:
                    continue
                record(
                    a,
                    b,
                    _fill_children(canonical, symbol, dstate, min_trees, {var: sub}),
                )
                del pending[(a, b)]
                changed = True
                break
    return found
