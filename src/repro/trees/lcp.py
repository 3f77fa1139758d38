"""The largest-common-prefix operator ``⊔`` and the symbol ``⊥``.

Section 3 of the paper defines, for trees ``t, t'``::

    g(t1,…,tk) ⊔ g'(t1',…,tk') = g(t1 ⊔ t1', …, tk ⊔ tk')   if g = g'
                                = ⊥                           otherwise

``⊔`` is associative, commutative, and idempotent, so it extends to sets.
``⊥`` marks the positions where the compared trees disagree; those
positions are exactly where an earliest transducer places its state calls.

Because trees are interned (:mod:`repro.trees.tree`), one ``⊔`` call
memoizes on the pair of node uids: a pair of subtrees shared many times
inside the two compared DAGs is compared once, so the cost is linear in
the DAG size, not in the (possibly exponential) tree size.  The memo
lives for one top-level call and dies with it; results that callers
reuse (``out_S`` on a sample) are cached by those callers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import TreeError
from repro.trees.tree import Tree


class _BottomSymbol:
    """The unique ``⊥`` label.  Rendered as ``⊥`` in terms."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"

    def __str__(self) -> str:
        return "⊥"


BOTTOM_SYMBOL = _BottomSymbol()

#: The one-node tree ``⊥`` (rank 0).
BOTTOM = Tree(BOTTOM_SYMBOL, ())


def is_bottom(node: Tree) -> bool:
    """True iff the tree is exactly the ``⊥`` leaf."""
    return node.label is BOTTOM_SYMBOL


def lcp(left: Tree, right: Tree) -> Tree:
    """Binary largest common prefix ``t ⊔ t'`` (Section 3).

    ``⊥`` behaves as the least element: ``⊥ ⊔ t = ⊥`` because the labels
    differ — exactly the paper's definition, no special case needed.

    Interning makes ``left is right`` the complete equality test, and
    the result is memoized on the uid pair for the duration of the call,
    so ``⊔`` over shared substructure compares each subtree pair once.
    """
    return _lcp(left, right, {})


def _lcp(left: Tree, right: Tree, memo: Dict[Tuple[int, int], Tree]) -> Tree:
    if left is right:
        return left
    if left.label != right.label or len(left.children) != len(right.children):
        return BOTTOM
    key = (left.uid, right.uid)
    result = memo.get(key)
    if result is None:
        result = Tree(
            left.label,
            [_lcp(a, b, memo) for a, b in zip(left.children, right.children)],
        )
        memo[key] = result
    return result


def lcp_many(trees: Iterable[Tree]) -> Tree:
    """``⊔ L`` for a non-empty collection ``L`` of trees.

    Raises :class:`TreeError` on an empty collection — the paper leaves
    ``out_τ(u)`` undefined when no tree contains ``u``, and callers must
    treat that case explicitly.
    """
    iterator = iter(trees)
    try:
        result = next(iterator)
    except StopIteration:
        raise TreeError("largest common prefix of an empty set is undefined")
    memo: Dict[Tuple[int, int], Tree] = {}
    for item in iterator:
        if is_bottom(result):
            return result
        result = _lcp(result, item, memo)
    return result


def bottom_positions(node: Tree) -> Iterator[Tuple[int, ...]]:
    """Dewey addresses of all ``⊥`` leaves, in left-to-right order."""
    stack: List[Tuple[Tuple[int, ...], Tree]] = [((), node)]
    out: List[Tuple[int, ...]] = []
    while stack:
        address, current = stack.pop()
        if is_bottom(current):
            out.append(address)
            continue
        for i in range(len(current.children), 0, -1):
            stack.append((address + (i,), current.children[i - 1]))
    return iter(sorted(out))


def is_prefix_of(prefix: Tree, full: Tree) -> bool:
    """True iff ``prefix ⊑ full``: equal except ``⊥`` may stand for anything."""
    if is_bottom(prefix):
        return True
    if prefix.label != full.label or len(prefix.children) != len(full.children):
        return False
    return all(
        is_prefix_of(a, b) for a, b in zip(prefix.children, full.children)
    )
