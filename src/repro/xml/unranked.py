"""Unranked trees — the natural model of XML documents.

An unranked tree node has a label and arbitrarily many ordered children.
Text content is modeled by leaves labeled :data:`PCDATA_LABEL` carrying
the character data; the paper's formal development maps every text node
to the constant ``pcdata``, and our encoder keeps the actual values in a
side table so they can be restored after a transformation.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.errors import TreeError

#: The label of text (character-data) nodes; matches the paper's ``pcdata``.
PCDATA_LABEL = "pcdata"


class UTree:
    """An immutable unranked ordered tree.

    ``text`` is only meaningful on :data:`PCDATA_LABEL` leaves.
    """

    __slots__ = ("label", "children", "text")

    def __init__(
        self,
        label: str,
        children: Sequence["UTree"] = (),
        text: Optional[str] = None,
    ):
        children = tuple(children)
        if text is not None and label != PCDATA_LABEL:
            raise TreeError("only pcdata leaves may carry text")
        if text is not None and children:
            raise TreeError("text nodes cannot have children")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "text", text)

    def __setattr__(self, name: str, value: object) -> None:
        raise TreeError("UTree instances are immutable")

    @property
    def is_text(self) -> bool:
        return self.label == PCDATA_LABEL

    @property
    def size(self) -> int:
        return 1 + sum(child.size for child in self.children)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UTree):
            return NotImplemented
        return (
            self.label == other.label
            and self.text == other.text
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash((self.label, self.children, self.text))

    def __repr__(self) -> str:
        return f"UTree({self!s})"

    def __str__(self) -> str:
        if self.is_text:
            return f"{self.text!r}" if self.text is not None else "pcdata"
        if not self.children:
            return self.label
        inner = ", ".join(str(child) for child in self.children)
        return f"{self.label}({inner})"

    def subtrees(self) -> Iterator[Tuple[Tuple[int, ...], "UTree"]]:
        """All ``(Dewey address, subtree)`` pairs in pre-order."""
        stack: List[Tuple[Tuple[int, ...], UTree]] = [((), self)]
        while stack:
            address, node = stack.pop()
            yield address, node
            for i in range(len(node.children), 0, -1):
                stack.append((address + (i,), node.children[i - 1]))

    def strip_text(self) -> "UTree":
        """Replace every text value by ``None`` (pure structure)."""
        if self.is_text:
            return UTree(PCDATA_LABEL)
        return UTree(self.label, tuple(c.strip_text() for c in self.children))


def element(label: str, *children: UTree) -> UTree:
    """Convenience constructor for an element node."""
    return UTree(label, children)


def text(value: str) -> UTree:
    """Convenience constructor for a text node."""
    return UTree(PCDATA_LABEL, (), value)
