"""The span parser: the reference the one-pass DTD encoder is tested against.

:class:`SpanParserEncoder` encodes every element's child word by a
CYK-style search over its splits: O(n³) time and recursion depth ∝ n,
but it takes any content model, finds every parse, and raises
:class:`~repro.errors.AmbiguousContentModelError` on a word with two.
It builds for every DTD, also for the models ``DTDEncoder`` refuses,
and shares the production encoder's alphabet, value table and decoder.
On the models ``DTDEncoder`` accepts, both must agree byte for byte:
encoded tree, value table, and error type and message.

:func:`lookahead_witness` asks it why a refused model needs more than
one symbol of lookahead.
"""

import re
from typing import Dict, List, Optional, Tuple

from repro.errors import AmbiguousContentModelError, DTDError, EncodingError
from repro.trees.tree import Tree
from repro.xml.dtd import (
    DTD,
    Alt,
    ContentModel,
    ElementRe,
    Empty,
    Opt,
    PCDataRe,
    PCDATA_SYMBOL,
    Plus,
    Seq,
    Star,
)
from repro.xml.encode import HASH, DTDEncoder
from repro.xml.unranked import PCDATA_LABEL, UTree

#: The message of a refused content model: element, model label, token.
REFUSAL = re.compile(
    r"^element '([^']+)': the encoding of content model (\S+) needs more "
    r"than one symbol of lookahead at ('[^']+'|#PCDATA|the end of the children)$"
)


class SpanParserEncoder(DTDEncoder):
    """A ``DTDEncoder`` that span-parses every element."""

    def _compile_plans(self):
        return {}  # no one-pass plans, so no model is refused

    def _encode_element(self, node: UTree, texts: List[str]) -> Tree:
        if node.is_text:
            raise EncodingError("expected an element, found text")
        model = self.dtd.content(node.label)
        items = node.children
        if isinstance(model, Empty):
            if items:
                raise EncodingError(f"element {node.label!r} must be EMPTY")
            return Tree(node.label, ())
        memo: Dict = {}
        if self.fuse and isinstance(model, Seq):
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


# ---------------------------------------------------------------------------
# Why a model needs more than one symbol of lookahead
# ---------------------------------------------------------------------------


def _words(model: ContentModel, length: int, memo: Dict) -> frozenset:
    """Every child word of exactly ``length`` tokens that ``model`` accepts."""
    key = (id(model), length)
    if key in memo:
        return memo[key]
    if isinstance(model, PCDataRe):
        words = {(PCDATA_LABEL,)} if length == 1 else set()
    elif isinstance(model, ElementRe):
        words = {(model.name,)} if length == 1 else set()
    elif isinstance(model, Opt):
        words = {()} if length == 0 else set(_words(model.inner, length, memo))
    elif isinstance(model, Alt):
        words = set().union(*(_words(part, length, memo) for part in model.parts))
    elif isinstance(model, Seq):
        words = _seq_words(model.parts, 0, length, memo)
    else:  # Star / Plus: a non-empty head, then the rest of the list
        words = {()} if length == 0 and isinstance(model, Star) else set()
        for size in range(1, length + 1):
            tails = set(_words(model, length - size, memo))
            if size == length:
                tails.add(())
            for head in _words(model.inner, size, memo):
                words.update(head + tail for tail in tails)
    memo[key] = frozenset(words)
    return memo[key]


def _seq_words(parts, index: int, length: int, memo: Dict) -> set:
    if index == len(parts):
        return {()} if length == 0 else set()
    words = set()
    for size in range(length + 1):
        heads = _words(parts[index], size, memo)
        if heads:
            tails = _seq_words(parts, index + 1, length - size, memo)
            words.update(head + tail for head in heads for tail in tails)
    return words


def _contexts(model: ContentModel, entered: bool = False):
    """Every subexpression, and whether it is only entered on a token of
    its first set: set by ``Opt``, kept by ``Alt``, reset by the rest."""
    yield model, entered
    if isinstance(model, Opt):
        yield from _contexts(model.inner, True)
    elif isinstance(model, Alt):
        for part in model.parts:
            yield from _contexts(part, entered)
    elif isinstance(model, (Seq, Star, Plus)):
        for part in model.parts if isinstance(model, Seq) else (model.inner,):
            yield from _contexts(part)


def lookahead_witness(dtd: DTD, name: str, max_length: int = 12) -> Optional[tuple]:
    """What the span parser shows about ``name``'s content model, if anything.

    The model is taken alone, with the elements it names declared EMPTY,
    and its words are tried by length up to ``max_length``.  A one-pass
    encoder with one symbol of lookahead has decided every node that
    comes before token ``i``'s leaf in pre-order once it has read token
    ``i``.  So the answer is one of:

    * ``("nullable loop body", label)``: a ``R*``/``R+`` whose body
      spans the empty word, so an iteration need not consume a token;
    * ``("ambiguous on the empty word", label)``: a subexpression with
      two parses of the empty word, as ``(a?|b?)`` has, that is not
      only entered on a token of its first set (the body of an ``R?``
      and the ``Alt`` branches of such a body are: the span parser never
      asks them for the empty word);
    * ``("ambiguous", word)``: the span parser finds two parses;
    * ``("two-symbol lookahead", word1, word2)``: two words that agree
      on their first ``i + 1`` tokens, and whose encodings differ before
      token ``i``'s leaf;

    or ``None`` when none of the words shows anything.
    """
    model = dtd.elements[name]
    names = {sub.name for sub in model.subexpressions() if isinstance(sub, ElementRe)}
    alone = DTD(name, {name: model, **{other: Empty() for other in names}})
    reference = SpanParserEncoder(alone)
    for sub, entered in _contexts(model):
        if isinstance(sub, (Star, Plus)) and reference._spans(sub.inner, (), 0, 0, {}):
            return ("nullable loop body", sub.label())
        if entered:
            continue
        try:
            reference._encode_span(sub, (), 0, 0, {}, [])
        except AmbiguousContentModelError:
            return ("ambiguous on the empty word", sub.label())
        except EncodingError:
            pass  # ``sub`` does not match the empty word
    token_labels = names | {PCDATA_SYMBOL}
    seen: Dict[tuple, tuple] = {}  # first i + 1 tokens → (word, labels)
    memo: Dict = {}
    for length in range(max_length + 1):
        for word in sorted(_words(model, length, memo)):
            document = UTree(
                name,
                tuple(
                    UTree(PCDATA_LABEL, (), "x") if token == PCDATA_LABEL else UTree(token)
                    for token in word
                ),
            )
            try:
                tree = reference.encode(document)
            except AmbiguousContentModelError:
                return ("ambiguous", word)
            labels: List[str] = []
            position = 0
            for _address, node in tree.subtrees():
                labels.append(node.label)
                if node.label in token_labels:
                    key = word[: position + 1]
                    earlier, earlier_labels = seen.setdefault(key, (word, tuple(labels)))
                    if earlier_labels != tuple(labels):
                        return ("two-symbol lookahead", earlier, word)
                    position += 1
    return None
