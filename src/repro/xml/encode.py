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
side table keyed by the Dewey address of the ``pcdata`` leaf, so that a
transformation result can be re-hydrated (see
:func:`repro.transducers.origins.apply_with_origins`).

**Parsing child words.**  XML 1.0 requires deterministic content models,
and such a model can be parsed left to right with one symbol of
lookahead (Brüggemann-Klein and Wood, "One-unambiguous regular
languages", 1998).  At construction every content model is compiled
into that form when its lookahead is unambiguous (:func:`_lookahead_plan`:
nullable and first sets per subexpression, then first/follow
disjointness).  An element's child word is then checked in one
label-only pass — an invalid word raises this level's error before any
child element is encoded — and encoded in a second left-to-right pass
that builds cons lists from the right in a loop.  Both cost O(n) in the
number of children, and recursion depth is bounded by content-model
nesting and element depth, never by list length.

Models whose lookahead is ambiguous (``(a*,a*)``, ``(a?|b?)``,
``(a+)+``, ``(a?)*``) keep the span parser: a CYK-style search over
every split of the word, O(n³) time and recursion depth ∝ n, which also
reports :class:`~repro.errors.AmbiguousContentModelError`.  It stays the
reference the one-pass parser is tested against; a word the one-pass
parser rejects raises the message the span parser would, derived from
the model without running it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import AmbiguousContentModelError, DTDError, EncodingError
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree
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

Values = Dict[Tuple[int, ...], str]


def abstract_value_of(text: Optional[str]) -> str:
    """Stable two-way abstraction of a text value (``v0`` or ``v1``).

    Input and output documents encode the same string to the same
    abstract value, so copying of text is observable in encoded samples.
    The abstraction is the byte-sum parity: strings differing in a final
    counter digit (``title1`` vs ``title2``) land on different values,
    which is what example generators rely on to exhibit both values.
    """
    data = (text or "").encode("utf-8")
    return VALUE_LABELS[sum(data) & 1]


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


def _compile(model: ContentModel) -> Optional[_Node]:
    """Nullable and first sets of every subexpression, bottom-up."""
    kind = type(model)
    if kind is PCDataRe:
        return _Node(kind, PCDATA_LABEL, (PCDATA_LABEL,), False)
    if kind is ElementRe:
        if model.name == PCDATA_LABEL:
            return None  # indistinguishable from text by label
        return _Node(kind, model.name, (model.name,), False)
    if kind in (Seq, Alt):
        parts = tuple(_compile(part) for part in model.parts)
    elif kind in (Star, Plus, Opt):
        parts = (_compile(model.inner),)
    else:
        return None
    if None in parts:
        return None
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


def _deterministic(node: _Node, follow: frozenset) -> bool:
    """Does one symbol of lookahead fix every choice inside ``node``?

    ``follow`` is the set of tokens that may come right after ``node``.
    Star and Plus bodies must also consume a token per iteration, as the
    span parser requires.
    """
    kind = node.kind
    if not node.parts:
        return True
    if kind is Seq:
        for part in reversed(node.parts):
            if not _deterministic(part, follow):
                return False
            follow = part.first | follow if part.nullable else part.first
        return True
    if kind is Alt:
        disjoint = sum(len(part.first) for part in node.parts) == len(node.first)
        nullable = sum(part.nullable for part in node.parts)
        if not disjoint or nullable > 1 or (nullable and node.first & follow):
            return False
        return all(_deterministic(part, follow) for part in node.parts)
    inner = node.parts[0]
    if inner.first & follow:
        return False
    if kind is Opt:
        return _deterministic(inner, follow)
    return not inner.nullable and _deterministic(inner, inner.first | follow)


def _lookahead_plan(model: ContentModel) -> Optional[_Node]:
    """``model`` compiled for one-pass parsing, or ``None`` for the span parser."""
    plan = _compile(model)
    if plan is None or not _deterministic(plan, frozenset()):
        return None
    return plan


def _mismatch_message(name: str, model: ContentModel, fused: bool) -> str:
    """The span parser's error for a child word that ``model`` rejects.

    An invalid word is never empty under a root ``R?``, so the span
    parser descends through ``Opt`` roots and fails at the first other
    node, with that node's message.
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
        self._registry: Dict[str, ContentModel] = {}
        self._ranks: Dict[str, int] = {HASH_LABEL: 0}
        if abstract_values:
            self._ranks[PCDATA_SYMBOL] = 1
            for value_label in VALUE_LABELS:
                self._ranks[value_label] = 0
        else:
            self._ranks[PCDATA_SYMBOL] = 0
        self._collect_alphabet()
        #: element → (one-pass plan, the error an invalid child word
        #: raises); absent for EMPTY and for models left to the span parser.
        self._plans: Dict[str, Tuple[_Node, str]] = {}
        for name, model in dtd.elements.items():
            plan = _lookahead_plan(model)
            if plan is not None:
                fused = fuse and isinstance(model, Seq)
                self._plans[name] = (plan, _mismatch_message(name, model, fused))

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
    # One-pass parsing (content models with unambiguous lookahead)
    # ------------------------------------------------------------------

    def _match(self, node: _Node, tokens: List, pos: int) -> int:
        """End of ``node``'s parse of ``tokens`` from ``pos``, or -1.

        ``tokens`` are the child labels plus a ``None`` end marker, which
        no first set contains.
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
    # Span parsing (the fallback, and the reference in tests)
    # ------------------------------------------------------------------

    def _spans(
        self,
        model: ContentModel,
        items: Tuple[UTree, ...],
        i: int,
        j: int,
        memo: Dict,
    ) -> bool:
        """Can ``model`` generate ``items[i:j]``?  Memoized."""
        key = (id(model), i, j)
        if key in memo:
            return memo[key]
        memo[key] = False  # cycle guard (Star/Plus recursion shrinks spans)
        result = self._spans_raw(model, items, i, j, memo)
        memo[key] = result
        return result

    def _spans_raw(self, model, items, i, j, memo) -> bool:
        if isinstance(model, Empty):
            return i == j
        if isinstance(model, PCDataRe):
            return j == i + 1 and items[i].is_text
        if isinstance(model, ElementRe):
            return j == i + 1 and not items[i].is_text and items[i].label == model.name
        if isinstance(model, Star):
            if i == j:
                return True
            return any(
                self._spans(model.inner, items, i, k, memo)
                and self._spans(model, items, k, j, memo)
                for k in range(i + 1, j + 1)
            )
        if isinstance(model, Plus):
            return any(
                self._spans(model.inner, items, i, k, memo)
                and (k == j or self._spans(model, items, k, j, memo))
                for k in range(i + 1, j + 1)
            )
        if isinstance(model, Opt):
            return i == j or self._spans(model.inner, items, i, j, memo)
        if isinstance(model, Alt):
            return any(self._spans(p, items, i, j, memo) for p in model.parts)
        if isinstance(model, Seq):
            return bool(self._seq_splits(model.parts, items, i, j, memo, cap=1))
        raise DTDError(f"unknown content model node {model!r}")

    def _seq_splits(
        self, parts, items, i, j, memo, cap: int = 2
    ) -> List[Tuple[int, ...]]:
        """Up to ``cap`` ways to split ``items[i:j]`` across ``parts``.

        A split is the tuple of boundary indices (len(parts)+1 entries).
        """
        results: List[Tuple[int, ...]] = []

        def recurse(index: int, position: int, bounds: Tuple[int, ...]) -> None:
            if len(results) >= cap:
                return
            if index == len(parts):
                if position == j:
                    results.append(bounds + (j,))
                return
            for k in range(position, j + 1):
                if self._spans(parts[index], items, position, k, memo):
                    recurse(index + 1, k, bounds + (k,))
                    if len(results) >= cap:
                        return

        recurse(0, i, (i,))
        # Deduplicate (identical boundary tuples can be found twice).
        unique: List[Tuple[int, ...]] = []
        for item in results:
            if item not in unique:
                unique.append(item)
        return unique

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, document: UTree) -> Tree:
        """Encode a document; values are dropped (the paper's model)."""
        tree, _values = self.encode_with_values(document)
        return tree

    def encode_with_values(self, document: UTree) -> Tuple[Tree, Values]:
        """Encode a document, returning the ranked tree and its text values.

        The value table maps Dewey addresses of ``pcdata`` leaves in the
        encoded tree to the original character data.
        """
        if document.is_text:
            raise EncodingError("the document root cannot be a text node")
        if document.label != self.dtd.start:
            raise EncodingError(
                f"root element {document.label!r} is not the DTD start "
                f"element {self.dtd.start!r}"
            )
        texts: List[str] = []
        tree = self._encode_element(document, texts)
        if not texts:
            return tree, {}
        # Texts were collected in document order, and pre-order is the
        # lexicographic order of the slot addresses.
        labels = VALUE_LABELS if self.abstract_values else (PCDATA_SYMBOL,)
        slots = [
            address for address, node in tree.subtrees() if node.label in labels
        ]
        return tree, dict(zip(slots, texts))

    def _encode_item(self, item: UTree, texts: List[str]) -> Tree:
        """``enc_D`` of one child matched by an element or ``#PCDATA`` leaf."""
        if not item.is_text:
            return self._encode_element(item, texts)
        if item.text is not None:
            texts.append(item.text)
        if self.abstract_values:
            return Tree(PCDATA_SYMBOL, (Tree(abstract_value_of(item.text), ()),))
        return PCDATA_LEAF

    def _encode_element(self, node: UTree, texts: List[str]) -> Tree:
        if node.is_text:
            raise EncodingError("expected an element, found text")
        model = self.dtd.content(node.label)
        items = node.children
        if isinstance(model, Empty):
            if items:
                raise EncodingError(f"element {node.label!r} must be EMPTY")
            return Tree(node.label, ())
        fused = self.fuse and isinstance(model, Seq)
        if node.label in self._plans:
            plan, mismatch = self._plans[node.label]
            tokens: List = [item.label for item in items]
            tokens.append(None)
            if self._match(plan, tokens, 0) != len(items):
                raise EncodingError(mismatch)
            if fused:
                children, _ = self._build_parts(plan, items, tokens, 0, texts)
                return Tree(node.label, children)
            tree, _ = self._build(plan, items, tokens, 0, texts)
            return Tree(node.label, (tree,))
        memo: Dict = {}
        if fused:
            splits = self._seq_splits(model.parts, items, 0, len(items), memo)
            if not splits:
                raise EncodingError(
                    f"children of {node.label!r} do not match {model.label()}"
                )
            if len(splits) > 1:
                raise AmbiguousContentModelError(
                    f"children of {node.label!r} parse ambiguously "
                    f"against {model.label()}"
                )
            bounds = splits[0]
            encoded = tuple(
                self._encode_span(
                    part, items, bounds[k], bounds[k + 1], memo, texts
                )
                for k, part in enumerate(model.parts)
            )
            return Tree(node.label, encoded)
        return Tree(
            node.label,
            (self._encode_span(model, items, 0, len(items), memo, texts),),
        )

    def _encode_span(
        self,
        model: ContentModel,
        items: Tuple[UTree, ...],
        i: int,
        j: int,
        memo: Dict,
        texts: List[str],
    ) -> Tree:
        """``enc_D(R, items[i:j])`` — the unique parse, or an error."""
        if isinstance(model, PCDataRe):
            if not (j == i + 1 and items[i].is_text):
                raise EncodingError("expected character data")
            return self._encode_item(items[i], texts)
        if isinstance(model, ElementRe):
            if not (j == i + 1 and not items[i].is_text and items[i].label == model.name):
                raise EncodingError(f"expected a {model.name!r} element")
            return self._encode_item(items[i], texts)
        if isinstance(model, Star):
            label = model.label()
            if i == j:
                return HASH if self.compact_lists else Tree(label, (HASH, HASH))
            cuts = [
                k
                for k in range(i + 1, j + 1)
                if self._spans(model.inner, items, i, k, memo)
                and self._spans(model, items, k, j, memo)
            ]
            return self._cons(
                model, label, items, i, j, cuts, memo, texts, star=True
            )
        if isinstance(model, Plus):
            label = model.label()
            cuts = [
                k
                for k in range(i + 1, j + 1)
                if self._spans(model.inner, items, i, k, memo)
                and (k == j or self._spans(model, items, k, j, memo))
            ]
            if len(cuts) == 1 and cuts[0] == j:
                head = self._encode_span(model.inner, items, i, j, memo, texts)
                return Tree(label, (head, HASH))
            return self._cons(
                model, label, items, i, j, cuts, memo, texts, star=False
            )
        if isinstance(model, Opt):
            label = model.label()
            if i == j:
                return Tree(label, (HASH,))
            inner = self._encode_span(model.inner, items, i, j, memo, texts)
            return Tree(label, (inner,))
        if isinstance(model, Alt):
            matching = [
                p for p in model.parts if self._spans(p, items, i, j, memo)
            ]
            if not matching:
                raise EncodingError(
                    f"no branch of {model.label()} matches the children"
                )
            if len(matching) > 1:
                raise AmbiguousContentModelError(
                    f"multiple branches of {model.label()} match"
                )
            return Tree(
                model.label(),
                (self._encode_span(matching[0], items, i, j, memo, texts),),
            )
        if isinstance(model, Seq):
            splits = self._seq_splits(model.parts, items, i, j, memo)
            if not splits:
                raise EncodingError(f"children do not match {model.label()}")
            if len(splits) > 1:
                raise AmbiguousContentModelError(
                    f"ambiguous parse against {model.label()}"
                )
            bounds = splits[0]
            return Tree(
                model.label(),
                tuple(
                    self._encode_span(
                        part, items, bounds[k], bounds[k + 1], memo, texts
                    )
                    for k, part in enumerate(model.parts)
                ),
            )
        raise DTDError(f"cannot encode against {model!r}")

    def _cons(
        self, model, label, items, i, j, cuts, memo, texts, star: bool
    ) -> Tree:
        if not cuts:
            raise EncodingError(f"children do not match {label}")
        if len(cuts) > 1:
            raise AmbiguousContentModelError(
                f"ambiguous parse against {label} "
                f"(the DTD is not 1-unambiguous)"
            )
        k = cuts[0]
        head = self._encode_span(model.inner, items, i, k, memo, texts)
        if star or k < j:
            tail = self._encode_span(model, items, k, j, memo, texts)
        else:
            tail = HASH
        return Tree(label, (head, tail))

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(self, tree: Tree, values: Optional[Values] = None) -> UTree:
        """Decode a ranked encoding back to an unranked document.

        ``values`` optionally rehydrates text content by Dewey address of
        the ``pcdata`` leaves.
        """
        decoded: List[UTree] = []
        self._decode_items(tree, () if values else None, values, decoded)
        if len(decoded) != 1 or decoded[0].is_text:
            raise EncodingError("the tree does not decode to a single element")
        return decoded[0]

    def _decode_items(
        self,
        node: Tree,
        address: Optional[Tuple[int, ...]],
        values: Optional[Values],
        out: List[UTree],
    ) -> None:
        """Append the unranked items ``node`` encodes to ``out``.

        The last child of a grouping node (the tail of an ``R*``/``R+``
        spine) is walked in a loop, not recursively.  ``address`` is
        ``None`` when there are no values to look up.
        """
        while True:
            label = node.label
            if label == HASH_LABEL:
                return
            if label == PCDATA_SYMBOL:
                text = None
                if address is not None:
                    # abstract-values mode: the value sits on pcdata(v0|v1)
                    slot = address + (1,) if node.children else address
                    text = values.get(slot)
                out.append(UTree(PCDATA_LABEL, (), text))
                return
            if label in self.dtd.elements:
                children: List[UTree] = []
                for index, child in enumerate(node.children, start=1):
                    self._decode_items(
                        child,
                        None if address is None else address + (index,),
                        values,
                        children,
                    )
                out.append(UTree(str(label), tuple(children)))
                return
            if label not in self._registry:
                raise EncodingError(f"unknown encoding symbol {label!r}")
            last = len(node.children)
            if not last:
                return
            for index, child in enumerate(node.children[:-1], start=1):
                self._decode_items(
                    child,
                    None if address is None else address + (index,),
                    values,
                    out,
                )
            node = node.children[-1]
            if address is not None:
                address = address + (last,)

    def roundtrip(self, document: UTree) -> UTree:
        """Encode then decode — identity on valid documents (with values)."""
        tree, values = self.encode_with_values(document)
        return self.decode(tree, values)
