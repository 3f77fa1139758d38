"""Minimal DAG (hash-consed) representation of trees.

The paper remarks (Section 1) that a DTOP can translate a monadic tree of
height ``n`` into a full binary tree of height ``n`` — exponentially large
as a tree but linear as a minimal DAG — and that the DAG representation of
a DTOP's output can be computed in time linear in the input (citing
Maneth & Busatto).  :class:`Dag` is the hash-consing pool that makes this
possible: structurally equal subtrees are shared, so repeated subtrees cost
one node.  :meth:`repro.transducers.dtop.DTOP.apply_dag` evaluates a
transducer directly into a :class:`Dag` without ever materializing the
output tree.

Relation to :class:`~repro.trees.tree.Tree` interning: ``Tree`` itself is
now globally hash-consed, so every in-memory tree *is already* its own
minimal DAG — ``dag_to_tree`` costs only the pointers.  :class:`Dag`
remains the explicit, pool-scoped representation: its dense integer uids
(``0 … len(pool)-1``) index per-pool arrays, its nodes never hold the
whole program's intern table alive, and :meth:`Dag.make` accepts labels at
any arity without the output-alphabet checks a transducer run needs.  The
two representations convert losslessly (:meth:`Dag.add_tree`,
:func:`dag_to_tree`); :meth:`Dag.add_tree` is memoized on the stable
``Tree.uid``, so re-adding shared subtrees is O(1) per node.

Like tree interning, a :class:`Dag` assumes its nodes are never mutated.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Set, Tuple

from repro.trees.tree import Label, Tree


class DagNode:
    """A node of a hash-consed DAG.  Created only through :class:`Dag`."""

    __slots__ = ("label", "children", "uid")

    def __init__(self, label: Label, children: Tuple["DagNode", ...], uid: int):
        self.label = label
        self.children = children
        self.uid = uid

    def __repr__(self) -> str:
        return f"DagNode(#{self.uid}, {self.label!r}, {len(self.children)} children)"


class Dag:
    """A hash-consing pool: structurally equal subtrees share one node.

    >>> pool = Dag()
    >>> a = pool.make("a")
    >>> f1 = pool.make("f", (a, a))
    >>> f2 = pool.make("f", (a, a))
    >>> f1 is f2
    True
    """

    def __init__(self) -> None:
        self._pool: Dict[Tuple[Label, Tuple[int, ...]], DagNode] = {}
        self._nodes: List[DagNode] = []
        # Tree.uid → DagNode, so repeated add_tree calls on overlapping
        # trees (and shared subtrees within one tree) intern each distinct
        # subtree exactly once.  Tree uids are never reused, so entries
        # can never alias a different tree.
        self._tree_memo: Dict[int, DagNode] = {}

    def make(self, label: Label, children: Sequence[DagNode] = ()) -> DagNode:
        """Intern and return the node ``label(children…)``."""
        children = tuple(children)
        key = (label, tuple(c.uid for c in children))
        node = self._pool.get(key)
        if node is None:
            node = DagNode(label, children, len(self._nodes))
            self._pool[key] = node
            self._nodes.append(node)
        return node

    def add_tree(self, root: Tree) -> DagNode:
        """Intern a whole tree bottom-up; returns its DAG root.

        Memoized on :attr:`Tree.uid` across calls: only subtrees this pool
        has never seen are traversed.
        """
        memo = self._tree_memo
        cached = memo.get(root.uid)
        if cached is not None:
            return cached
        # Iterative post-order to avoid recursion limits on deep trees.
        stack: List[Tuple[Tree, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if node.uid in memo:
                continue
            if expanded:
                children = tuple(memo[c.uid] for c in node.children)
                memo[node.uid] = self.make(node.label, children)
            else:
                stack.append((node, True))
                for child in node.children:
                    if child.uid not in memo:
                        stack.append((child, False))
        return memo[root.uid]

    def __len__(self) -> int:
        """Total number of distinct nodes interned in the pool."""
        return len(self._nodes)

    def nodes(self) -> Iterator[DagNode]:
        return iter(self._nodes)


def dag_of_tree(root: Tree) -> Tuple[Dag, DagNode]:
    """Build the minimal DAG of a single tree."""
    pool = Dag()
    return pool, pool.add_tree(root)


def dag_size(node: DagNode) -> int:
    """Number of distinct DAG nodes reachable from ``node``."""
    seen: Set[int] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if current.uid in seen:
            continue
        seen.add(current.uid)
        stack.extend(current.children)
    return len(seen)


def tree_size(node: DagNode) -> int:
    """Size of the tree the DAG unfolds to (may be exponential in DAG size)."""
    memo: Dict[int, int] = {}

    def visit(current: DagNode) -> int:
        cached = memo.get(current.uid)
        if cached is not None:
            return cached
        total = 1 + sum(visit(child) for child in current.children)
        memo[current.uid] = total
        return total

    return visit(node)


def dag_to_tree(node: DagNode) -> Tree:
    """Unfold a DAG node back into a tree.  Exponential if sharing is deep."""
    memo: Dict[int, Tree] = {}

    def visit(current: DagNode) -> Tree:
        cached = memo.get(current.uid)
        if cached is not None:
            return cached
        result = Tree(current.label, tuple(visit(c) for c in current.children))
        memo[current.uid] = result
        return result

    return visit(node)
