"""Hash-consed immutable ordered ranked trees and a term syntax for them.

Trees are the ground terms of Section 2: a label together with an ordered
tuple of child trees.  Labels are arbitrary hashable objects — plain
strings for input/output symbols, but also the ``⊥`` sentinel of
:mod:`repro.trees.lcp` and the state calls ``⟨q, x_i⟩`` used in transducer
right-hand sides (:mod:`repro.transducers.rhs`).

Interning (hash-consing)
------------------------

Every :class:`Tree` is *interned*: constructing a tree that is structurally
equal to one that already exists returns the **same object**.  The global
intern table is a weak-value dictionary, so trees are reclaimed as soon as
no client references them.  Consequences that the rest of the code base
relies on:

* **identity equality and hashing** — two live trees are structurally
  equal iff they are the same object, so :class:`Tree` keeps
  ``object``'s ``==`` and ``hash`` (both identity, in C) and caches no
  hash per node;
* **stable node ids** — every distinct tree carries a monotonically
  increasing :attr:`Tree.uid` that is never reused, safe to use as a memo
  key even after the tree is garbage-collected (unlike ``id()``);
* **maximal structural sharing** — repeated subtrees exist once in memory;
  a full binary tree with ``2^n - 1`` nodes built bottom-up from shared
  halves allocates only ``n`` objects.

The non-negotiable caveat: **never mutate a node** (labels included — a
mutable-but-hashable label object must not be changed after use).  Mutation
would corrupt every structurally equal tree in the program at once.
:class:`Tree` enforces immutability of its own attributes by raising
:class:`~repro.errors.TreeError` from ``__setattr__`` and ``__delattr__``.

Interning statistics are exposed through :func:`intern_stats` /
:func:`reset_intern_stats`; :func:`interned_count` reports the number of
live distinct trees.  Construction is thread-safe without a lock: a miss
publishes its new node with one atomic ``dict.setdefault``, so two threads
building the same structure at once get one object with one uid (the
loser's node is discarded), and dead entries are dropped only through
the atomic dead-reference removal ``WeakValueDictionary`` uses.

The term syntax is the paper's: ``f(a, g(b, c))``; a one-node tree ``f()``
may be written ``f``.  Labels may be quoted with double quotes so that the
DTD-encoding labels such as ``"(a*,b*)"`` round-trip.
"""

from __future__ import annotations

import itertools
import weakref
from _weakref import _remove_dead_weakref
from typing import Callable, Dict, Hashable, Iterator, List, Sequence, Tuple, Union

from repro.errors import ParseError, TreeError

Label = Hashable

#: Global intern table: (label, children) → weakref to the unique live
#: Tree.  Weak references let unused trees be reclaimed; the death
#: callback removes the entry.  A raw dict of keyed refs (the pattern
#: WeakValueDictionary implements) keeps the hot construction path free
#: of extra Python frames.
_INTERN: Dict[Tuple[Label, Tuple["Tree", ...]], "_InternRef"] = {}

_UID = itertools.count(1)

_STATS: Dict[str, int] = {"hits": 0, "misses": 0}

# Bound once: the miss path allocates and fills a node without a
# Python-level frame besides ``Tree.__new__`` itself.
_new_object = object.__new__
_set = object.__setattr__
_new_ref = weakref.ref.__new__


def _forget(ref: "_InternRef") -> None:
    # The entry may already have been replaced by a re-interned tree;
    # drop it only while it is still a dead reference, in one atomic
    # step (a check-then-delete could remove a live replacement that
    # another thread inserted in between).
    _remove_dead_weakref(_INTERN, ref.key)


class _InternRef(weakref.ref):
    """A weak reference remembering its intern-table key (made with
    ``_new_ref(_InternRef, tree, _forget)``, then ``key`` set)."""

    __slots__ = ("key",)


def intern_stats() -> Dict[str, int]:
    """Counters of the global intern table: ``hits``, ``misses``, ``live``.

    A *hit* is a :class:`Tree` construction that returned an existing
    object; a *miss* allocated a new node.  ``live`` is the current number
    of distinct trees (equals :func:`interned_count`).
    """
    return {**_STATS, "live": len(_INTERN)}


def reset_intern_stats() -> None:
    """Zero the hit/miss counters (the table itself is untouched)."""
    _STATS["hits"] = 0
    _STATS["misses"] = 0


def interned_count() -> int:
    """Number of distinct live trees in the intern table."""
    return len(_INTERN)


class Tree:
    """An interned immutable ordered tree with a hashable label.

    Construction goes through the global intern table, so structurally
    equal trees **are** the same object::

        >>> Tree("f", (Tree("a"), Tree("a"))) is Tree("f", (Tree("a"), Tree("a")))
        True

    Equality and hashing are therefore object identity (inherited from
    :class:`object`); size and height are computed once per distinct
    node.  Trees can be used freely as dictionary keys (the learning
    algorithm does this heavily for residuals and memoized evaluation)
    and as memo-cache keys via the never-reused :attr:`uid`.

    Never mutate a node or its label object — see the module docstring.
    """

    __slots__ = ("label", "children", "uid", "size", "height", "__weakref__")

    label: Label
    children: Tuple["Tree", ...]
    #: Unique id of this structural value; monotonic, never reused.
    uid: int
    #: Number of nodes.
    size: int
    #: Number of nodes on a longest root-to-leaf branch (leaf = 1).
    height: int

    def __new__(cls, label: Label, children: Sequence["Tree"] = ()):
        if children.__class__ is not tuple:
            children = tuple(children)
        for child in children:
            if not isinstance(child, Tree):
                raise TreeError(f"child {child!r} is not a Tree")
        key = (label, children)
        try:
            ref = _INTERN.get(key)
        except TypeError:
            raise TreeError(f"label {label!r} is not hashable") from None
        if ref is not None:
            cached = ref()
            if cached is not None:
                _STATS["hits"] += 1
                return cached
        size = 1
        height = 0
        for child in children:
            size += child.size
            if child.height > height:
                height = child.height
        self = _new_object(cls)
        _set(self, "label", label)
        _set(self, "children", children)
        _set(self, "uid", next(_UID))
        _set(self, "size", size)
        _set(self, "height", height + 1)
        ref = _new_ref(_InternRef, self, _forget)
        ref.key = key
        # Publish atomically: another thread may have interned this key
        # since the lookup above, and then its node wins.  A dead entry
        # left for a pending death callback is dropped and the insert
        # retried.
        while True:
            published = _INTERN.setdefault(key, ref)
            if published is ref:
                break
            cached = published()
            if cached is not None:
                _STATS["hits"] += 1
                return cached
            _remove_dead_weakref(_INTERN, key)
        _STATS["misses"] += 1
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise TreeError("Tree instances are immutable")

    def __delattr__(self, name: str) -> None:
        raise TreeError("Tree instances are immutable")

    def __reduce__(self):
        # Re-interns on unpickling; also makes copy/deepcopy structural.
        return (Tree, (self.label, self.children))

    def __copy__(self) -> "Tree":
        return self

    def __deepcopy__(self, memo: dict) -> "Tree":
        return self

    @property
    def arity(self) -> int:
        """Number of children (the rank this tree uses its root label at)."""
        return len(self.children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __repr__(self) -> str:
        return f"Tree({format_term(self)!r})"

    def __str__(self) -> str:
        return format_term(self)

    def child(self, index: int) -> "Tree":
        """1-based child access, matching the paper's node numbering."""
        if not 1 <= index <= len(self.children):
            raise TreeError(
                f"node labeled {self.label!r} has {len(self.children)} "
                f"children, no child #{index}"
            )
        return self.children[index - 1]

    def nodes(self) -> Iterator[Tuple[int, ...]]:
        """All node addresses in pre-order (Dewey, 1-based; root = ``()``)."""
        stack: List[Tuple[Tuple[int, ...], Tree]] = [((), self)]
        while stack:
            address, node = stack.pop()
            yield address
            for i in range(len(node.children), 0, -1):
                stack.append((address + (i,), node.children[i - 1]))

    def subtrees(self) -> Iterator[Tuple[Tuple[int, ...], "Tree"]]:
        """All ``(address, subtree)`` pairs in pre-order."""
        stack: List[Tuple[Tuple[int, ...], Tree]] = [((), self)]
        while stack:
            address, node = stack.pop()
            yield address, node
            for i in range(len(node.children), 0, -1):
                stack.append((address + (i,), node.children[i - 1]))

    def leaves(self) -> Iterator[Tuple[Tuple[int, ...], "Tree"]]:
        """All ``(address, leaf)`` pairs in left-to-right order."""
        for address, node in self.subtrees():
            if node.is_leaf:
                yield address, node

    def labels(self) -> Iterator[Label]:
        """All labels, in pre-order."""
        for _, node in self.subtrees():
            yield node.label

    def map_labels(self, fn: Callable[[Label], Label]) -> "Tree":
        """Return the tree with every label replaced by ``fn(label)``.

        Shared subtrees are relabeled once (memoized on :attr:`uid`).
        """
        memo: Dict[int, Tree] = {}

        def visit(node: Tree) -> Tree:
            cached = memo.get(node.uid)
            if cached is not None:
                return cached
            result = Tree(fn(node.label), tuple(visit(c) for c in node.children))
            memo[node.uid] = result
            return result

        return visit(self)


def tree(label: Label, *children: Tree) -> Tree:
    """Convenience constructor: ``tree("f", leaf("a"), leaf("b"))``."""
    return Tree(label, children)


def leaf(label: Label) -> Tree:
    """A one-node tree."""
    return Tree(label, ())


# ---------------------------------------------------------------------------
# Term syntax
# ---------------------------------------------------------------------------

_IDENT_EXTRA = set("#_-*+?|.!'⊣")


def _is_ident_char(ch: str) -> bool:
    return ch.isalnum() or ch in _IDENT_EXTRA


def format_term(node: Tree) -> str:
    """Render a tree in the paper's term syntax, ``f(a, g(b))``.

    Non-string labels are rendered with ``str``; labels containing
    delimiter characters are double-quoted so that parsing round-trips.
    """
    label = node.label if isinstance(node.label, str) else str(node.label)
    if not label or not all(_is_ident_char(ch) for ch in label):
        label = '"' + label.replace('"', '\\"') + '"'
    if not node.children:
        return label
    inner = ", ".join(format_term(child) for child in node.children)
    return f"{label}({inner})"


class _TermParser:
    """Recursive-descent parser for the term syntax."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(f"{message} at position {self.pos} in {self.text!r}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def parse_label(self) -> str:
        self.skip_ws()
        if self.pos >= len(self.text):
            raise self.error("expected a label")
        if self.text[self.pos] == '"':
            self.pos += 1
            out: List[str] = []
            while self.pos < len(self.text) and self.text[self.pos] != '"':
                if self.text[self.pos] == "\\" and self.pos + 1 < len(self.text):
                    self.pos += 1
                out.append(self.text[self.pos])
                self.pos += 1
            if self.pos >= len(self.text):
                raise self.error("unterminated quoted label")
            self.pos += 1
            return "".join(out)
        start = self.pos
        while self.pos < len(self.text) and _is_ident_char(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise self.error(f"unexpected character {self.text[self.pos]!r}")
        return self.text[start : self.pos]

    def parse_tree(self) -> Tree:
        label = self.parse_label()
        self.skip_ws()
        if self.pos < len(self.text) and self.text[self.pos] == "(":
            self.pos += 1
            self.skip_ws()
            children: List[Tree] = []
            if self.pos < len(self.text) and self.text[self.pos] == ")":
                self.pos += 1
                return Tree(label, ())
            while True:
                children.append(self.parse_tree())
                self.skip_ws()
                if self.pos >= len(self.text):
                    raise self.error("unterminated argument list")
                ch = self.text[self.pos]
                self.pos += 1
                if ch == ")":
                    return Tree(label, tuple(children))
                if ch != ",":
                    raise self.error(f"expected ',' or ')', got {ch!r}")
        return Tree(label, ())


def parse_term(text: Union[str, bytes]) -> Tree:
    """Parse the paper's term syntax: ``parse_term("f(a, g(b))")``.

    ``bytes`` are read as UTF-8.

    >>> parse_term("root(a(#,#), b)").size
    5
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ParseError(f"invalid UTF-8 at byte {error.start}") from None
    parser = _TermParser(text)
    result = parser.parse_tree()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after term")
    return result
