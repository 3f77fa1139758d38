"""The ranked encoding of JSON documents, mirroring ``enc_D`` (§10).

The paper's DTD-based encoding is format-agnostic: any document shape
that lowers to ranked trees over a finite alphabet can be served by the
same learned DTOPs.  JSON lowers with a fixed, schema-less alphabet:

* ``obj(members)`` / ``arr(items)`` for the two containers;
* cons-lists for their contents — ``mems(member, rest)`` /
  ``items(item, rest)`` with the shared terminator ``#`` (the compact,
  path-closed list rule of :class:`~repro.xml.encode.DTDEncoder`);
* ``m:KEY(value)`` for one object member — the key lives in the label,
  so a DTOP rule can dispatch on it (rename, rewrap, …); keys are
  restricted to an identifier-like subset so every key is a valid
  tree label;
* ``str(v)`` / ``num(v)`` for scalars, with ``v`` one of the two
  abstract value constants of :func:`repro.xml.encode.abstract_value_of`
  — the raw scalar goes into a side table keyed by the preorder ordinal
  of the abstract leaf among the value leaves, exactly the XML
  contract, so transformation results re-hydrate through provenance
  (:meth:`repro.engine.execute.Engine.slot_sources`);
* ``true`` / ``false`` / ``null`` as rank-0 constants.

List spines are built and consumed iteratively, so recursion depth is
bounded by document *nesting*, never by array length.
"""

from __future__ import annotations

import math
import re
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import EncodingError
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree
from repro.transducers.origins import slot_count
from repro.xml.dtd import HASH_LABEL
from repro.xml.encode import VALUE_LABELS, abstract_value_of

from repro.json.jsonio import JsonValue, serialize_json

OBJECT_LABEL = "obj"
ARRAY_LABEL = "arr"
MEMBERS_LABEL = "mems"
ITEMS_LABEL = "items"
STRING_LABEL = "str"
NUMBER_LABEL = "num"
TRUE_LABEL = "true"
FALSE_LABEL = "false"
NULL_LABEL = "null"

#: Object keys are carried in node labels; prefixed to avoid collisions
#: with the structural symbols above.
MEMBER_PREFIX = "m:"

#: The modeled key subset — every key must be a valid tree label and
#: must survive the term syntax used in error messages and samples.
KEY_PATTERN = re.compile(r"[A-Za-z_][A-Za-z0-9_.-]*\Z")

#: Ranks of the fixed (key-independent) encoding symbols.
BASE_RANKS = {
    HASH_LABEL: 0,
    OBJECT_LABEL: 1,
    ARRAY_LABEL: 1,
    MEMBERS_LABEL: 2,
    ITEMS_LABEL: 2,
    STRING_LABEL: 1,
    NUMBER_LABEL: 1,
    TRUE_LABEL: 0,
    FALSE_LABEL: 0,
    NULL_LABEL: 0,
    VALUE_LABELS[0]: 0,
    VALUE_LABELS[1]: 0,
}

HASH = Tree(HASH_LABEL, ())
TRUE = Tree(TRUE_LABEL, ())
FALSE = Tree(FALSE_LABEL, ())
NULL = Tree(NULL_LABEL, ())
#: ``str(v)`` / ``num(v)`` by abstract value ``v``: every scalar
#: encodes to one of these four subtrees.
STRING_TREES = {v: Tree(STRING_LABEL, (Tree(v, ()),)) for v in VALUE_LABELS}
NUMBER_TREES = {v: Tree(NUMBER_LABEL, (Tree(v, ()),)) for v in VALUE_LABELS}

#: The rank-0 constants and the values they decode to.
CONSTANTS = {TRUE_LABEL: True, FALSE_LABEL: False, NULL_LABEL: None}

Values = Dict[int, JsonValue]

Scalar = (str, int, float)


def member_label(key: str) -> str:
    """The encoding label of an object member with ``key``."""
    if not KEY_PATTERN.match(key):
        raise EncodingError(
            f"object key {key!r} is outside the modeled subset "
            f"(keys must match {KEY_PATTERN.pattern})"
        )
    return MEMBER_PREFIX + key


def json_alphabet(keys: Tuple[str, ...] = ()) -> RankedAlphabet:
    """The encoding alphabet over a finite key set."""
    ranks = dict(BASE_RANKS)
    for key in keys:
        ranks[member_label(key)] = 1
    return RankedAlphabet(ranks)


def _scalar_text(value: JsonValue) -> str:
    """The text :func:`serialize_json` renders a number as (``repr``,
    where that is the text), or the writer's :class:`EncodingError`."""
    try:
        if isinstance(value, int) or math.isfinite(value):
            return repr(value)
    except ValueError:  # an int past the str-conversion limit
        pass
    return serialize_json(value)


class JsonEncoder:
    """Encoder/decoder between JSON values and ranked trees.

    Schema-less and stateless: any document of the modeled subset
    encodes, and the encoder keeps nothing from one document to the next
    (:func:`json_alphabet` builds the alphabet over a chosen key set).
    Scalar *values* are always abstracted — the encoding is the
    ``abstract_values`` mode of the XML encoder, which is what makes
    copying of values observable and provenance exact.
    """

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------

    def encode(self, document: JsonValue) -> Tree:
        """Encode a document; scalar values are dropped (the paper's model)."""
        tree, _values = self.encode_with_values(document)
        return tree

    def encode_with_values(self, document: JsonValue) -> Tuple[Tree, Values]:
        """Encode a document, returning the ranked tree and its scalars
        (string or number), keyed by the preorder ordinal of their
        ``v0``/``v1`` leaf: the order the scalars are collected in."""
        scalars: List[JsonValue] = []
        tree = self._encode_value(document, scalars)
        return tree, dict(enumerate(scalars))

    def _encode_value(self, value: JsonValue, scalars: List[JsonValue]) -> Tree:
        # bool before int: True/False are int instances in Python.
        if value is True:
            return TRUE
        if value is False:
            return FALSE
        if value is None:
            return NULL
        if isinstance(value, str):
            scalars.append(value)
            return STRING_TREES[abstract_value_of(value)]
        if isinstance(value, (int, float)):
            text = _scalar_text(value)  # also rejects NaN/Infinity
            scalars.append(value)
            return NUMBER_TREES[abstract_value_of(text)]
        if isinstance(value, dict):
            heads = []
            for key, member in value.items():
                if not isinstance(key, str):
                    raise EncodingError(
                        f"object key {key!r} is not a string"
                    )
                label = member_label(key)
                heads.append(
                    Tree(label, (self._encode_value(member, scalars),))
                )
            return Tree(
                OBJECT_LABEL, (self._spine(MEMBERS_LABEL, heads),)
            )
        if isinstance(value, (list, tuple)):
            heads = [self._encode_value(item, scalars) for item in value]
            return Tree(ARRAY_LABEL, (self._spine(ITEMS_LABEL, heads),))
        raise EncodingError(
            f"value of type {type(value).__name__} is outside the "
            f"modeled JSON subset"
        )

    @staticmethod
    def _spine(label: str, heads: List[Tree]) -> Tree:
        spine = HASH
        for head in reversed(heads):
            spine = Tree(label, (head, spine))
        return spine

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------

    def decode(
        self,
        tree: Tree,
        values: Optional[Values] = None,
        counts: Optional[Dict[int, int]] = None,
    ) -> JsonValue:
        """Decode a ranked encoding back to a JSON value.

        ``values`` rehydrates scalars by the preorder ordinal of their
        abstract value leaf among the value leaves.  A value leaf with
        no entry (a scalar the machine synthesized rather than copied)
        defaults to ``""`` under ``str`` and ``0`` under ``num``; a value
        that crossed types (a string moved into a ``num`` position, say)
        is coerced.  ``counts`` is a
        :func:`~repro.transducers.origins.slot_count` memo over
        ``VALUE_LABELS`` (a batch shares one).
        """
        return self._decode_value(
            tree, [0], values or {}, {} if counts is None else counts
        )

    def _decode_value(
        self, node: Tree, slot: List[int], values: Values, counts: Dict[int, int]
    ) -> JsonValue:
        """``slot[0]`` is the ordinal of the next value leaf in preorder."""
        label = node.label
        if label in CONSTANTS:
            if node.children:  # ignored children may hold value leaves
                slot[0] += slot_count(node, VALUE_LABELS, counts)
            return CONSTANTS[label]
        if label in (STRING_LABEL, NUMBER_LABEL):
            leaf = node.children[0] if len(node.children) == 1 else node
            if leaf.label not in VALUE_LABELS or leaf.children:
                raise EncodingError(
                    f"scalar symbol {label!r} must hold one abstract value leaf"
                )
            raw = values.get(slot[0])
            slot[0] += 1
            if label == STRING_LABEL:
                if raw is None:
                    return ""
                return raw if isinstance(raw, str) else serialize_json(raw)
            if isinstance(raw, str):
                for number in (int, float):
                    try:
                        return number(raw)
                    except ValueError:
                        pass
            elif isinstance(raw, (int, float)) and not isinstance(raw, bool):
                return raw
            return 0
        if label == OBJECT_LABEL:
            self._expect_rank(node, 1)
            result: dict = {}
            for head in self._iter_spine(MEMBERS_LABEL, node.children[0]):
                key = self._member_key(head)
                if key in result:
                    raise EncodingError(
                        f"decoded object has duplicate key {key!r}"
                    )
                result[key] = self._decode_value(
                    head.children[0], slot, values, counts
                )
            return result
        if label == ARRAY_LABEL:
            self._expect_rank(node, 1)
            return [
                self._decode_value(head, slot, values, counts)
                for head in self._iter_spine(ITEMS_LABEL, node.children[0])
            ]
        raise EncodingError(
            f"unknown JSON encoding symbol {label!r}"
        )

    @staticmethod
    def _expect_rank(node: Tree, rank: int) -> None:
        if len(node.children) != rank:
            raise EncodingError(
                f"encoding symbol {node.label!r} used with rank "
                f"{len(node.children)}, expected {rank}"
            )

    @staticmethod
    def _member_key(head: Tree) -> str:
        if not head.label.startswith(MEMBER_PREFIX) or len(head.children) != 1:
            raise EncodingError(
                f"object member {head.label!r} is not a rank-1 "
                f"{MEMBER_PREFIX}KEY symbol"
            )
        return head.label[len(MEMBER_PREFIX) :]

    @staticmethod
    def _iter_spine(label: str, node: Tree) -> Iterator[Tree]:
        """Walk a cons spine iteratively, yielding its heads."""
        while node.label == label:
            if len(node.children) != 2:
                raise EncodingError(
                    f"list symbol {label!r} used with rank "
                    f"{len(node.children)}, expected 2"
                )
            yield node.children[0]
            node = node.children[1]
        if node.label != HASH_LABEL or node.children:
            raise EncodingError(
                f"list spine of {label!r} ends in {node.label!r}, "
                f"expected the terminator {HASH_LABEL!r}"
            )

    def roundtrip(self, document: JsonValue) -> JsonValue:
        """Encode then decode — identity on modeled documents."""
        tree, values = self.encode_with_values(document)
        return self.decode(tree, values)
