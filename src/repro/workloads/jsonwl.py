"""JSON document workloads: config migration and API-response reshaping.

Hand-written DTOPs over the JSON encoding alphabet
(:mod:`repro.json.encode`), plus plain-Python reference implementations
the differential tests compare against.  All machines are built from a
single copying state extended with the workload's twist, the way the
paper's §10 machines extend a copy skeleton:

* ``config_rename`` — rename ``user``→``username`` and ``pwd``→
  ``password`` at every nesting level (key-labeled members make a
  rename a one-rule relabel);
* ``wrap_document`` — rewrap any document as ``{"data": …}``;
* ``normalize_defaults`` — replace every ``null`` with ``false``;
* ``redact_strings`` — erase every string value (the rule emits a
  ground abstract leaf, so provenance is dropped and rehydration
  yields ``""`` — redaction *by construction*);
* ``identity`` — the pure copy machine: parse, validate, canonicalize.

Every machine is total on the universal domain over
:data:`CONFIG_KEYS`; a document using a key outside the set is an
out-of-domain error, reported per document like any other.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.automata.build import universal_dtta
from repro.automata.dtta import DTTA
from repro.transducers.dtop import DTOP
from repro.transducers.rhs import call, rhs_tree
from repro.trees.alphabet import RankedAlphabet
from repro.trees.tree import Tree

from repro.json.encode import json_alphabet, member_label
from repro.json.jsonio import JsonValue
from repro.codec import Transformation
from repro.json.pipeline import json_codec

#: The key universe of the config workloads.
CONFIG_KEYS = (
    "data",
    "debug",
    "host",
    "password",
    "port",
    "pwd",
    "retries",
    "tags",
    "user",
    "username",
)

#: The renames ``config_rename`` applies (old key → new key).
RENAME_MAP = {"user": "username", "pwd": "password"}


def config_alphabet() -> RankedAlphabet:
    return json_alphabet(CONFIG_KEYS)


def copy_rules(state: str, alphabet: RankedAlphabet) -> Dict:
    """The pure-copy rule set: ``q(f(x1…xr)) → f(q x1, …, q xr)``."""
    rules = {}
    for symbol, rank in alphabet.items():
        rhs = (
            rhs_tree(symbol)
            if rank == 0
            else rhs_tree(
                (symbol,) + tuple((state, index) for index in range(1, rank + 1))
            )
        )
        rules[(state, symbol)] = rhs
    return rules


def _copy_machine(rules_twist: Dict, axiom: Tree = None) -> DTOP:
    alphabet = config_alphabet()
    rules = copy_rules("q", alphabet)
    rules.update(rules_twist)
    if axiom is None:
        axiom = call("q", 0)
    return DTOP(alphabet, alphabet, axiom, rules)


def config_domain() -> DTTA:
    return universal_dtta(config_alphabet())


def _as_transformation(transducer: DTOP) -> Transformation:
    return Transformation(transducer, json_codec(), config_domain())


# ----------------------------------------------------------------------
# Machines
# ----------------------------------------------------------------------


def identity_transducer() -> DTOP:
    """Parse → encode → copy → decode: validation and canonicalization."""
    return _copy_machine({})


def config_rename_transducer() -> DTOP:
    """Rename :data:`RENAME_MAP` keys at every nesting level."""
    twist = {
        ("q", member_label(old)): rhs_tree((member_label(new), ("q", 1)))
        for old, new in RENAME_MAP.items()
    }
    return _copy_machine(twist)


def wrap_transducer(key: str = "data") -> DTOP:
    """Rewrap any document as ``{key: document}``."""
    axiom = Tree(
        "obj",
        (
            Tree(
                "mems",
                (Tree(member_label(key), (call("q", 0),)), Tree("#", ())),
            ),
        ),
    )
    return _copy_machine({}, axiom=axiom)


def defaults_transducer() -> DTOP:
    """Replace every ``null`` with ``false``."""
    return _copy_machine({("q", "null"): rhs_tree("false")})


def redact_transducer() -> DTOP:
    """Erase every string value: the ground abstract leaf carries no
    provenance, so every string rehydrates to ``""``."""
    return _copy_machine({("q", "str"): rhs_tree(("str", "v0"))})


def identity_transformation() -> Transformation:
    return _as_transformation(identity_transducer())


def config_rename_transformation() -> Transformation:
    return _as_transformation(config_rename_transducer())


def wrap_transformation(key: str = "data") -> Transformation:
    return _as_transformation(wrap_transducer(key))


def defaults_transformation() -> Transformation:
    return _as_transformation(defaults_transducer())


def redact_transformation() -> Transformation:
    return _as_transformation(redact_transducer())


# ----------------------------------------------------------------------
# Plain-Python references (for differential tests)
# ----------------------------------------------------------------------


def reference_identity(document: JsonValue) -> JsonValue:
    return document


def reference_rename(document: JsonValue) -> JsonValue:
    if isinstance(document, dict):
        return {
            RENAME_MAP.get(key, key): reference_rename(value)
            for key, value in document.items()
        }
    if isinstance(document, list):
        return [reference_rename(item) for item in document]
    return document


def reference_wrap(document: JsonValue, key: str = "data") -> JsonValue:
    return {key: document}


def reference_defaults(document: JsonValue) -> JsonValue:
    if document is None:
        return False
    if isinstance(document, dict):
        return {
            key: reference_defaults(value) for key, value in document.items()
        }
    if isinstance(document, list):
        return [reference_defaults(item) for item in document]
    return document


def reference_redact(document: JsonValue) -> JsonValue:
    if isinstance(document, str):
        return ""
    if isinstance(document, dict):
        return {
            key: reference_redact(value) for key, value in document.items()
        }
    if isinstance(document, list):
        return [reference_redact(item) for item in document]
    return document


#: (name, transformation factory, reference) triples — the test matrix.
JSON_WORKLOADS: List[Tuple[str, object, object]] = [
    ("identity", identity_transformation, reference_identity),
    ("rename", config_rename_transformation, reference_rename),
    ("wrap", wrap_transformation, reference_wrap),
    ("defaults", defaults_transformation, reference_defaults),
    ("redact", redact_transformation, reference_redact),
]


def example_documents() -> List[JsonValue]:
    """Config-shaped documents over :data:`CONFIG_KEYS`, mixed depths."""
    return [
        {},
        [],
        True,
        None,
        "standalone",
        42,
        {"user": "ada", "pwd": "s3cret", "host": "db.example", "port": 5432},
        {"user": "alan", "debug": None, "retries": 3},
        {"tags": ["a", "b", "c"], "data": {"user": "grace"}},
        {"host": "h", "port": 0, "tags": [], "debug": True},
        {
            "data": {
                "user": "ada",
                "data": {"pwd": "deep", "tags": [1, 2.5, None, False]},
            }
        },
        [{"user": "u1"}, {"user": "u2", "pwd": "p"}, "x", 7, [True, None]],
    ]
