"""The DTD-based ranked encoding of unranked trees (Section 10).

``enc_D(R, w)`` groups the children of each element by the regular
subexpressions of the DTD's content models:

* ``f(enc_D(D(f), w'))`` for an element ``f`` (rank 0 when ``EMPTY``);
* ``pcdata`` for character data;
* ``R*(#, #)`` for an empty list, ``R*(enc(R, w1), enc(R*, w2…wn))``
  otherwise — a cons-list;
* ``R+(enc(R, w1), #)`` / ``R+(enc(R, w1), enc(R+, w2…wn))``;
* ``R?(#)`` / ``R?(enc(R, w1))``;
* ``(R1|…|Rm)(enc(Ri, w))`` for the unique matching branch;
* ``(R1,…,Rm)(enc(R1, w1), …, enc(Rm, wm))`` for the unique split.

The optional **fusion** mode collapses an element whose content model is
a plain sequence into a single node of rank ``n`` — the presentation the
paper uses for the §10 library example (``B(x1, x2, x3)``).

Character-data *values* are not part of the formal model (every text
node encodes to the constant ``pcdata``); the encoder returns them in a
side table keyed by the preorder ordinal of the text's value slot (the
``pcdata`` leaf, or its ``v0``/``v1`` child with ``abstract_values``)
among the value slots, so that a transformation result can be
re-hydrated (see :meth:`repro.engine.execute.Engine.slot_sources`).

**Parsing child words.**  ``enc_D`` needs the unique parse of each
child word, and the encoder finds it in one left-to-right pass with one
symbol of lookahead.  At construction every content model is compiled
into that form (:func:`_lookahead_plan`: nullable and first sets per
subexpression, then first/follow disjointness, the check of
Brüggemann-Klein and Wood, "One-unambiguous regular languages", 1998).
An element's child word is then checked in one label-only pass — an
invalid word raises this level's error before any child element is
encoded — and encoded in a second left-to-right pass that builds cons
lists from the right in a loop.  Both cost O(n) in the number of
children, and recursion depth is bounded by content-model nesting and
element depth, never by list length.

XML 1.0 requires deterministic content models, and the encoder accepts
no other: a model whose *encoding* needs more than one symbol of
lookahead is refused when the encoder is built, with an
:class:`~repro.errors.AmbiguousContentModelError` naming the element,
the model and the token where the choice is open.  That covers the
non-deterministic models (``(a*,a*)``, ``(a?,a)``, ``((a,b?)+,b)``) and
three deterministic shapes the encoding cannot parse with one symbol:
``(a?|b?)`` and ``(a+)+`` parse ambiguously (on the empty word and on
``aa``), and ``(a?)*`` has a loop body that matches nothing.  Under an
``R?`` a choice is only entered on a token, so ``(a?|b?)?`` is taken.  The
element name ``pcdata`` is reserved: text children carry that label.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import AmbiguousContentModelError, DTDError, EncodingError
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree
from repro.transducers.origins import slot_count
from repro.xml.dtd import (
    DTD,
    Alt,
    ContentModel,
    ElementRe,
    Empty,
    HASH_LABEL,
    Opt,
    PCDataRe,
    PCDATA_SYMBOL,
    Plus,
    Seq,
    Star,
)
from repro.xml.unranked import PCDATA_LABEL, UTree

HASH = Tree(HASH_LABEL, ())
PCDATA_LEAF = Tree(PCDATA_SYMBOL, ())

#: The two abstract text-value constants used by ``abstract_values`` mode.
VALUE_LABELS = ("v0", "v1")

Values = Dict[int, str]

#: The token after the last child; no first set contains it.
_END = None


def abstract_value_of(text: Optional[str]) -> str:
    """Stable two-way abstraction of a text value (``v0`` or ``v1``).

    Input and output documents encode the same string to the same
    abstract value, so copying of text is observable in encoded samples.
    The abstraction is the byte-sum parity: strings differing in a final
    counter digit (``title1`` vs ``title2``) land on different values,
    which is what example generators rely on to exhibit both values.
    """
    return VALUE_LABELS[sum(_utf8(text or "")) & 1]


def _utf8(text: str) -> bytes:
    """``text`` in UTF-8.  A lone surrogate is an :class:`EncodingError`:
    it is not a character, and no UTF-8 output could carry it."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as error:
        code = ord(error.object[error.start])
        raise EncodingError(f"lone surrogate U+{code:04X} is not a character") from None


class _Node:
    """One content-model subexpression compiled for one-symbol lookahead.

    Tokens are element names, and ``pcdata`` for character data (the
    label of text children).  ``kind`` is the model class; a leaf
    (``ElementRe`` or ``PCDataRe``, no ``parts``) matches one child by
    label.  ``table`` and ``default`` pick an ``Alt`` branch by
    lookahead, falling back to its one nullable branch.
    """

    __slots__ = ("kind", "label", "first", "nullable", "parts", "table", "default")

    def __init__(self, kind, label: str, first, nullable: bool, parts=()):
        self.kind = kind
        self.label = label
        self.first = frozenset(first)
        self.nullable = nullable
        self.parts: Tuple["_Node", ...] = parts
        if kind is Alt:
            self.table = {token: part for part in parts for token in part.first}
            self.default = next((part for part in parts if part.nullable), None)


def _compile(model: ContentModel) -> _Node:
    """Nullable and first sets of every subexpression, bottom-up."""
    kind = type(model)
    if kind is PCDataRe:
        return _Node(kind, PCDATA_LABEL, (PCDATA_LABEL,), False)
    if kind is ElementRe:
        return _Node(kind, model.name, (model.name,), False)
    if kind in (Seq, Alt):
        parts = tuple(_compile(part) for part in model.parts)
    elif kind in (Star, Plus, Opt):
        parts = (_compile(model.inner),)
    else:
        raise DTDError(f"cannot encode against {model!r}")
    if kind is Seq:
        first: set = set()
        nullable = True
        for part in parts:
            if nullable:
                first |= part.first
            nullable = nullable and part.nullable
    else:
        first = set().union(*(part.first for part in parts))
        nullable = kind in (Star, Opt) or any(part.nullable for part in parts)
    return _Node(kind, model.label(), first, nullable, parts)


def _conflict(node: _Node, follow: frozenset, entered: bool = False) -> frozenset:
    """The tokens on which one symbol of lookahead leaves a choice open.

    ``follow`` is the set of tokens that may come right after ``node``,
    ``_END`` for the end of the children.  The result is empty when one
    symbol fixes every choice inside ``node``.  Star and Plus bodies
    must also consume a token per iteration: a nullable body leaves
    open, at whatever follows the loop, whether another iteration runs.
    ``entered`` says that ``node`` is only entered on a token of its
    first set (the body of an ``R?``, or an ``Alt`` branch of one), so
    it never parses the empty word and may have several nullable
    branches.
    """
    kind = node.kind
    if not node.parts:
        return frozenset()
    if kind is Seq:
        for part in reversed(node.parts):
            clash = _conflict(part, follow)
            if clash:
                return clash
            follow = part.first | follow if part.nullable else part.first
        return frozenset()
    if kind is Alt:
        seen: set = set()
        shared: set = set()
        for part in node.parts:
            shared |= seen & part.first
            seen |= part.first
        nullable = sum(part.nullable for part in node.parts)
        if shared:
            return frozenset(shared)
        if nullable > 1 and not entered:
            return follow
        if nullable and node.first & follow:
            return node.first & follow
        for part in node.parts:
            clash = _conflict(part, follow, entered)
            if clash:
                return clash
        return frozenset()
    inner = node.parts[0]
    if inner.first & follow:
        return inner.first & follow
    if kind is Opt:
        return _conflict(inner, follow, True)
    if inner.nullable:
        return follow
    return _conflict(inner, inner.first | follow)


def _lookahead_plan(name: str, model: ContentModel) -> _Node:
    """``model`` compiled for one-pass parsing; refused if one symbol is not enough."""
    plan = _compile(model)
    clash = _conflict(plan, frozenset((_END,)))
    if clash:
        token = min(clash, key=lambda token: (token is _END, token or ""))
        if token is _END:
            where = "the end of the children"
        elif token == PCDATA_LABEL:
            where = "#PCDATA"
        else:
            where = repr(token)
        raise AmbiguousContentModelError(
            f"element {name!r}: the encoding of content model "
            f"{model.label()} needs more than one symbol of lookahead "
            f"at {where}"
        )
    return plan


def _mismatch_message(name: str, model: ContentModel, fused: bool) -> str:
    """The error for a child word that ``model`` rejects.

    It is derived from the model, never from the word, so a rejection
    costs no more than the one-pass check.  An invalid word is never
    empty under a root ``R?``, so the message is that of the first
    node below the ``Opt`` roots; a fused sequence names the element.
    These are the messages of the span-parser reference the encoder is
    tested against (``tests/xml/span_parser.py``).
    """
    if fused:
        return f"children of {name!r} do not match {model.label()}"
    while isinstance(model, Opt):
        model = model.inner
    if isinstance(model, PCDataRe):
        return "expected character data"
    if isinstance(model, ElementRe):
        return f"expected a {model.name!r} element"
    if isinstance(model, Alt):
        return f"no branch of {model.label()} matches the children"
    return f"children do not match {model.label()}"


class DTDEncoder:
    """Encoder/decoder between unranked documents and ranked trees.

    Parameters
    ----------
    dtd:
        The document type the documents conform to.
    fuse:
        Collapse elements whose content model is a plain sequence
        ``(R1,…,Rn)`` into rank-``n`` nodes (paper §10 style).
    compact_lists:
        Encode the *empty* list as the leaf ``#`` instead of the paper's
        ``R*(#, #)``.  With the paper's rule the two children of a star
        node are correlated (both ``#`` or both proper), the encoding
        language is not path-closed, and the variable alignment of
        Lemma 23 cannot be inferred from encoded documents alone — the
        characteristic sample must contain path-closure trees that encode
        no document.  The compact rule removes the correlation: the
        encoding language becomes path-closed and transformations like
        ``xmlflip`` are learnable from document examples (experiment E5).
    abstract_values:
        Encode character data as ``pcdata(v)`` with ``v`` one of two
        abstract value constants ``v0``/``v1`` (chosen by a stable hash
        of the text) instead of the bare constant ``pcdata``.  In the
        bare model all text content is a single constant, so the earliest
        normal form absorbs it into ground output and the machine never
        *copies* text — value rehydration then has nothing to track.
        Two abstract values make text positions two-valued (exactly the
        paper's notion from Section 5), forcing copy states like the
        ``q_P`` of the paper's §10 machine and making provenance exact.
    """

    def __init__(
        self,
        dtd: DTD,
        fuse: bool = False,
        compact_lists: bool = False,
        abstract_values: bool = False,
    ):
        self.dtd = dtd
        self.fuse = fuse
        self.compact_lists = compact_lists
        self.abstract_values = abstract_values
        #: The labels of value slots, the nodes text values sit on.
        self.value_labels = VALUE_LABELS if abstract_values else (PCDATA_SYMBOL,)
        if PCDATA_LABEL in dtd.elements:
            raise DTDError(
                f"element name {PCDATA_LABEL!r} is reserved: the encoding "
                f"labels character data {PCDATA_SYMBOL!r}"
            )
        self._plans = self._compile_plans()
        self._registry: Dict[str, ContentModel] = {}
        self._ranks: Dict[str, int] = {HASH_LABEL: 0}
        if abstract_values:
            self._ranks[PCDATA_SYMBOL] = 1
            for value_label in VALUE_LABELS:
                self._ranks[value_label] = 0
        else:
            self._ranks[PCDATA_SYMBOL] = 0
        self._collect_alphabet()

    def _compile_plans(self) -> Dict[str, Tuple[_Node, str]]:
        """Element → (one-pass plan, the error an invalid child word raises).

        Every element but the EMPTY ones gets a plan; a content model
        that one symbol of lookahead cannot parse is refused with an
        :class:`~repro.errors.AmbiguousContentModelError`.
        """
        plans = {}
        for name, model in self.dtd.elements.items():
            if not isinstance(model, Empty):
                fused = self.fuse and isinstance(model, Seq)
                plans[name] = (
                    _lookahead_plan(name, model),
                    _mismatch_message(name, model, fused),
                )
        return plans

    # ------------------------------------------------------------------
    # Alphabet
    # ------------------------------------------------------------------

    def _declare(self, label: str, rank: int) -> None:
        if self._ranks.get(label, rank) != rank:
            raise DTDError(
                f"encoding symbol {label!r} needed with ranks "
                f"{self._ranks[label]} and {rank}"
            )
        self._ranks[label] = rank

    def _element_rank(self, name: str) -> int:
        model = self.dtd.content(name)
        if isinstance(model, Empty):
            return 0
        if self.fuse and isinstance(model, Seq):
            return len(model.parts)
        return 1

    def _collect_alphabet(self) -> None:
        for name, model in self.dtd.elements.items():
            self._declare(name, self._element_rank(name))
            top_fused = self.fuse and isinstance(model, Seq)
            for sub in model.subexpressions():
                if sub is model and top_fused:
                    continue  # the fused sequence node is elided
                if isinstance(sub, (Empty, ElementRe)):
                    continue  # elements are declared above
                if isinstance(sub, PCDataRe):
                    self._declare(PCDATA_SYMBOL, 1 if self.abstract_values else 0)
                    continue
                label = sub.label()
                if isinstance(sub, (Star, Plus)):
                    self._declare(label, 2)
                elif isinstance(sub, (Opt, Alt)):
                    self._declare(label, 1)
                elif isinstance(sub, Seq):
                    self._declare(label, len(sub.parts))
                self._registry.setdefault(label, sub)

    @property
    def alphabet(self) -> RankedAlphabet:
        """The ranked encoding alphabet derived from the DTD."""
        return RankedAlphabet(self._ranks)

    # ------------------------------------------------------------------
    # One-pass parsing
    # ------------------------------------------------------------------

    def _match(self, node: _Node, tokens: List, pos: int) -> int:
        """End of ``node``'s parse of ``tokens`` from ``pos``, or -1.

        ``tokens`` are the child labels plus the ``_END`` marker.
        """
        if not node.parts:
            return pos + 1 if tokens[pos] in node.first else -1
        kind = node.kind
        if kind is Seq:
            for part in node.parts:
                pos = self._match(part, tokens, pos)
                if pos < 0:
                    return -1
            return pos
        if kind is Alt:
            branch = node.table.get(tokens[pos], node.default)
            return -1 if branch is None else self._match(branch, tokens, pos)
        inner = node.parts[0]
        if kind is Opt:
            if tokens[pos] in inner.first:
                return self._match(inner, tokens, pos)
            return pos
        if kind is Plus and tokens[pos] not in inner.first:
            return -1
        while tokens[pos] in inner.first:  # Star / Plus
            pos = self._match(inner, tokens, pos)
            if pos < 0:
                return -1
        return pos

    def _build(
        self,
        node: _Node,
        items: Tuple[UTree, ...],
        tokens: List,
        pos: int,
        texts: List[str],
    ) -> Tuple[Tree, int]:
        """``enc_D`` of ``node``'s parse from ``pos`` of a checked word, and its end."""
        if not node.parts:
            return self._encode_item(items[pos], texts), pos + 1
        kind = node.kind
        if kind is Seq:
            children, pos = self._build_parts(node, items, tokens, pos, texts)
            return Tree(node.label, children), pos
        if kind is Alt:
            branch = node.table.get(tokens[pos], node.default)
            child, pos = self._build(branch, items, tokens, pos, texts)
            return Tree(node.label, (child,)), pos
        inner = node.parts[0]
        if kind is Opt:
            child = HASH
            if tokens[pos] in inner.first:
                child, pos = self._build(inner, items, tokens, pos, texts)
            return Tree(node.label, (child,)), pos
        heads = []  # Star / Plus
        while tokens[pos] in inner.first:
            head, pos = self._build(inner, items, tokens, pos, texts)
            heads.append(head)
        if kind is Plus or self.compact_lists:
            tree = HASH
        else:
            tree = Tree(node.label, (HASH, HASH))
        for head in reversed(heads):
            tree = Tree(node.label, (head, tree))
        return tree, pos

    def _build_parts(
        self,
        node: _Node,
        items: Tuple[UTree, ...],
        tokens: List,
        pos: int,
        texts: List[str],
    ) -> Tuple[Tuple[Tree, ...], int]:
        """The encoded parts of a ``Seq`` node, in order, and their end."""
        children = []
        for part in node.parts:
            child, pos = self._build(part, items, tokens, pos, texts)
            children.append(child)
        return tuple(children), pos

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, document: UTree) -> Tree:
        """Encode a document; values are dropped (the paper's model)."""
        tree, _values = self.encode_with_values(document)
        return tree

    def encode_with_values(self, document: UTree) -> Tuple[Tree, Values]:
        """Encode a document, returning the ranked tree and its text values,
        keyed by the preorder ordinal of their value slot: the order the
        texts are collected in (a text without data has no entry)."""
        if document.is_text:
            raise EncodingError("the document root cannot be a text node")
        if document.label != self.dtd.start:
            raise EncodingError(
                f"root element {document.label!r} is not the DTD start "
                f"element {self.dtd.start!r}"
            )
        texts: List[Optional[str]] = []
        tree = self._encode_element(document, texts)
        return tree, {
            slot: text for slot, text in enumerate(texts) if text is not None
        }

    def _encode_item(self, item: UTree, texts: List[Optional[str]]) -> Tree:
        """``enc_D`` of one child matched by an element or ``#PCDATA`` leaf."""
        if not item.is_text:
            return self._encode_element(item, texts)
        texts.append(item.text)
        if self.abstract_values:
            return Tree(PCDATA_SYMBOL, (Tree(abstract_value_of(item.text), ()),))
        _utf8(item.text or "")  # refuses a lone surrogate
        return PCDATA_LEAF

    def _encode_element(self, node: UTree, texts: List[str]) -> Tree:
        if node.is_text:
            raise EncodingError("expected an element, found text")
        model = self.dtd.content(node.label)
        items = node.children
        if node.label in self.value_labels:  # a value slot without a value
            texts.append(None)
        if isinstance(model, Empty):
            if items:
                raise EncodingError(f"element {node.label!r} must be EMPTY")
            return Tree(node.label, ())
        plan, mismatch = self._plans[node.label]
        tokens: List = [item.label for item in items]
        tokens.append(_END)
        if self._match(plan, tokens, 0) != len(items):
            raise EncodingError(mismatch)
        if self.fuse and isinstance(model, Seq):
            children, _ = self._build_parts(plan, items, tokens, 0, texts)
            return Tree(node.label, children)
        tree, _ = self._build(plan, items, tokens, 0, texts)
        return Tree(node.label, (tree,))

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(
        self,
        tree: Tree,
        values: Optional[Values] = None,
        counts: Optional[Dict[int, int]] = None,
    ) -> UTree:
        """Decode a ranked encoding back to an unranked document.

        ``values`` optionally rehydrates text content by the preorder
        ordinal of each text's value slot among the value slots.
        ``counts`` is a :func:`~repro.transducers.origins.slot_count`
        memo over :attr:`value_labels` (a batch shares one).
        """
        decoded: List[UTree] = []
        self._decode_items(
            tree, [0], values or {}, decoded, {} if counts is None else counts
        )
        if len(decoded) != 1 or decoded[0].is_text:
            raise EncodingError("the tree does not decode to a single element")
        return decoded[0]

    def _decode_items(
        self,
        node: Tree,
        slot: List[int],
        values: Values,
        out: List[UTree],
        counts: Dict[int, int],
    ) -> None:
        """Append the unranked items ``node`` encodes to ``out``.

        The last child of a grouping node (the tail of an ``R*``/``R+``
        spine) is walked in a loop, not recursively.  ``slot[0]`` is the
        preorder ordinal of the next value slot (kept while ``values``).
        """
        labels = self.value_labels
        while True:
            label = node.label
            if label == HASH_LABEL:
                if values and node.children:
                    slot[0] += slot_count(node, labels, counts)
                return
            if label == PCDATA_SYMBOL:
                text = None
                if values:
                    # abstract-values mode: the value sits on pcdata(v0|v1)
                    holder = node.children[0] if node.children else node
                    ordinal = slot[0] + (holder is not node and label in labels)
                    if holder.label in labels:
                        text = values.get(ordinal)
                    slot[0] += slot_count(node, labels, counts)
                out.append(UTree(PCDATA_LABEL, (), text))
                return
            if label in self.dtd.elements:
                slot[0] += label in labels
                children: List[UTree] = []
                for child in node.children:
                    self._decode_items(child, slot, values, children, counts)
                out.append(UTree(str(label), tuple(children)))
                return
            if label not in self._registry:
                raise EncodingError(f"unknown encoding symbol {label!r}")
            if not node.children:
                return
            for child in node.children[:-1]:
                self._decode_items(child, slot, values, out, counts)
            node = node.children[-1]

    def roundtrip(self, document: UTree) -> UTree:
        """Encode then decode — identity on valid documents (with values)."""
        tree, values = self.encode_with_values(document)
        return self.decode(tree, values)
