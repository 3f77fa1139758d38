"""JSON (de)serialization of trees, automata, transducers, and samples.

A learned transducer is an artifact users want to store, diff, and ship;
this module gives every core object a stable JSON form.  Formats are
versioned under the ``"format"`` key; deserializers validate through the
ordinary constructors, so malformed documents fail with the usual
library errors.

Tree encoding: ``["f", child, …]`` with the shorthand ``"f"`` for
leaves.  State calls in right-hand sides are ``{"call": state,
"var": i}``; the ``⊥`` symbol is ``{"bottom": true}`` (only meaningful
inside prefix trees, never in transducers).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, List, Tuple

from repro.errors import ParseError, ReproError
from repro.automata.dtta import DTTA
from repro.learning.sample import Sample
from repro.trees.alphabet import RankedAlphabet
from repro.trees.lcp import BOTTOM, BOTTOM_SYMBOL
from repro.trees.tree import Tree
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import Call

FORMAT_TREE = "repro/tree@1"
FORMAT_DTTA = "repro/dtta@1"
FORMAT_DTOP = "repro/dtop@1"
FORMAT_SAMPLE = "repro/sample@1"
#: Served pipeline artifact: a JSON list of member model refs fused at load.
FORMAT_PIPELINE = "repro/pipeline@1"


# ---------------------------------------------------------------------------
# Trees
# ---------------------------------------------------------------------------


def tree_to_data(node: Tree) -> Any:
    """Tree → JSON-compatible data."""
    label = node.label
    if isinstance(label, Call):
        return {"call": _state_to_data(label.state), "var": label.var}
    if label is BOTTOM_SYMBOL:
        return {"bottom": True}
    if not isinstance(label, str):
        raise ParseError(f"cannot serialize non-string label {label!r}")
    if node.is_leaf:
        return label
    return [label] + [tree_to_data(child) for child in node.children]


def tree_from_data(data: Any) -> Tree:
    """JSON-compatible data → Tree."""
    if isinstance(data, str):
        return Tree(data, ())
    if isinstance(data, dict):
        if data.get("bottom"):
            return BOTTOM
        if "call" in data:
            return Tree(Call(_state_from_data(data["call"]), int(data["var"])), ())
        raise ParseError(f"unrecognized tree object {data!r}")
    if isinstance(data, list) and data and isinstance(data[0], str):
        return Tree(data[0], tuple(tree_from_data(child) for child in data[1:]))
    raise ParseError(f"cannot deserialize tree from {data!r}")


def _state_to_data(state: Any) -> Any:
    """States are strings, ints, or (nested) tuples of them."""
    if isinstance(state, tuple):
        return {"tuple": [_state_to_data(item) for item in state]}
    if isinstance(state, frozenset):
        return {"set": sorted((_state_to_data(item) for item in state), key=repr)}
    if isinstance(state, (str, int)):
        return state
    raise ParseError(f"cannot serialize state {state!r}")


def _state_sort_key(state: Any) -> str:
    """A canonical ordering key for states.

    ``repr`` of a frozenset follows hash iteration order, which varies
    across processes (PYTHONHASHSEED) — a serialized artifact would not
    be byte-stable.  The converted data is canonical, so its repr is.
    """
    return repr(_state_to_data(state))


def _state_from_data(data: Any) -> Any:
    if isinstance(data, dict):
        if "tuple" in data:
            return tuple(_state_from_data(item) for item in data["tuple"])
        if "set" in data:
            return frozenset(_state_from_data(item) for item in data["set"])
        raise ParseError(f"unrecognized state object {data!r}")
    return data


# ---------------------------------------------------------------------------
# Alphabets / automata
# ---------------------------------------------------------------------------


def alphabet_to_data(alphabet: RankedAlphabet) -> Dict[str, int]:
    return {symbol: rank for symbol, rank in sorted(alphabet.items())}


def alphabet_from_data(data: Dict[str, int]) -> RankedAlphabet:
    return RankedAlphabet({str(k): int(v) for k, v in data.items()})


def dtta_to_data(automaton: DTTA) -> Dict[str, Any]:
    return {
        "format": FORMAT_DTTA,
        "alphabet": alphabet_to_data(automaton.alphabet),
        "initial": _state_to_data(automaton.initial),
        "transitions": [
            {
                "state": _state_to_data(state),
                "symbol": symbol,
                "children": [_state_to_data(child) for child in children],
            }
            for (state, symbol), children in sorted(
                automaton.transitions.items(),
                key=lambda kv: (_state_sort_key(kv[0][0]), kv[0][1]),
            )
        ],
    }


def dtta_from_data(data: Dict[str, Any]) -> DTTA:
    if data.get("format") != FORMAT_DTTA:
        raise ParseError(f"not a {FORMAT_DTTA} document")
    transitions = {
        (
            _state_from_data(entry["state"]),
            str(entry["symbol"]),
        ): tuple(_state_from_data(child) for child in entry["children"])
        for entry in data["transitions"]
    }
    return DTTA(
        alphabet_from_data(data["alphabet"]),
        _state_from_data(data["initial"]),
        transitions,
    )


# ---------------------------------------------------------------------------
# Transducers
# ---------------------------------------------------------------------------


def dtop_to_data(transducer: DTOP) -> Dict[str, Any]:
    return {
        "format": FORMAT_DTOP,
        "input_alphabet": alphabet_to_data(transducer.input_alphabet),
        "output_alphabet": alphabet_to_data(transducer.output_alphabet),
        "axiom": tree_to_data(transducer.axiom),
        "rules": [
            {
                "state": _state_to_data(state),
                "symbol": symbol,
                "rhs": tree_to_data(rhs),
            }
            for (state, symbol), rhs in sorted(
                transducer.rules.items(),
                key=lambda kv: (_state_sort_key(kv[0][0]), kv[0][1]),
            )
        ],
    }


def dtop_from_data(data: Dict[str, Any]) -> DTOP:
    if data.get("format") != FORMAT_DTOP:
        raise ParseError(f"not a {FORMAT_DTOP} document")
    rules = {
        (
            _state_from_data(entry["state"]),
            str(entry["symbol"]),
        ): tree_from_data(entry["rhs"])
        for entry in data["rules"]
    }
    return DTOP(
        alphabet_from_data(data["input_alphabet"]),
        alphabet_from_data(data["output_alphabet"]),
        tree_from_data(data["axiom"]),
        rules,
    )


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


def sample_to_data(sample: Sample) -> Dict[str, Any]:
    return {
        "format": FORMAT_SAMPLE,
        "pairs": [
            {"input": tree_to_data(source), "output": tree_to_data(target)}
            for source, target in sample
        ],
    }


def sample_from_data(data: Dict[str, Any]) -> Sample:
    if data.get("format") != FORMAT_SAMPLE:
        raise ParseError(f"not a {FORMAT_SAMPLE} document")
    return Sample(
        (tree_from_data(entry["input"]), tree_from_data(entry["output"]))
        for entry in data["pairs"]
    )


# ---------------------------------------------------------------------------
# Convenience string front-ends
# ---------------------------------------------------------------------------


def dumps(obj: Any, indent: int = 2) -> str:
    """Serialize a Tree, DTTA, DTOP, or Sample to a JSON string."""
    if isinstance(obj, Tree):
        payload: Any = {"format": FORMAT_TREE, "tree": tree_to_data(obj)}
    elif isinstance(obj, DTTA):
        payload = dtta_to_data(obj)
    elif isinstance(obj, DTOP):
        payload = dtop_to_data(obj)
    elif isinstance(obj, Sample):
        payload = sample_to_data(obj)
    else:
        raise ParseError(f"cannot serialize object of type {type(obj).__name__}")
    return json.dumps(payload, indent=indent, ensure_ascii=False)


def loads(text: str) -> Any:
    """Deserialize any object produced by :func:`dumps`.

    Trees are rebuilt through the ordinary constructors, so they come
    back interned: loading the same document twice yields identical
    (``is``-equal) nodes, and loading a tree that already exists in
    memory shares its structure.
    """
    data = json.loads(text)
    return from_data(data)


def from_data(data: Any) -> Any:
    """Dispatch already-parsed JSON data on its ``"format"`` key."""
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object")
    fmt = data.get("format")
    reader = _READERS.get(fmt)
    if reader is None:
        raise ParseError(f"unknown format {fmt!r}")
    with shape_errors(fmt):
        return reader(data)


_READERS = {
    FORMAT_TREE: lambda data: tree_from_data(data["tree"]),
    FORMAT_DTTA: dtta_from_data,
    FORMAT_DTOP: dtop_from_data,
    FORMAT_SAMPLE: sample_from_data,
}


@contextmanager
def shape_errors(fmt: Any):
    """Report a wrong-typed or missing field as a ParseError naming ``fmt``.

    Readers index into the parsed data directly; on a malformed document
    that raises ``KeyError``/``TypeError``/``AttributeError`` rather
    than a library error.
    """
    try:
        yield
    except ReproError:
        raise
    except (KeyError, TypeError, AttributeError, ValueError, IndexError) as error:
        detail = (
            f"missing field {error}" if isinstance(error, KeyError) else str(error)
        )
        raise ParseError(f"malformed {fmt} document: {detail}") from None


def dump(obj: Any, path: str, indent: int = 2) -> None:
    """Serialize ``obj`` with :func:`dumps` and write it to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj, indent=indent))
        handle.write("\n")


def load(path: str) -> Any:
    """Read a UTF-8 JSON artifact written by :func:`dump` and deserialize it."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())
