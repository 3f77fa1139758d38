"""JSON transformations: the modeled subset, its ranked encoding, serving.

The paper's DTD-based encoding (§10) is format-agnostic — any document
shape that lowers to ranked trees over a finite alphabet is served by
the same learned DTOPs.  This package is the JSON sibling of
:mod:`repro.xml`:

* :mod:`repro.json.jsonio` — strict reader/writer for the modeled JSON
  subset on the stdlib :mod:`json` scanner and encoder, with
  line/column parse errors and an incremental JSON-lines stream parser;
* :mod:`repro.json.encode` — the schema-less ranked encoding (cons-list
  containers, key-labeled members, abstracted scalar values with a
  side table for rehydration);
* :mod:`repro.json.pipeline` — :func:`json_codec`, the
  :class:`~repro.codec.Codec` that a :class:`~repro.codec.Transformation`
  serves JSON with, the RPNI learner entry point, and the
  ``repro/json-transformation@1`` bundle format.
"""

from repro.json.jsonio import (
    JsonLinesParser,
    JsonValue,
    iter_json_documents,
    parse_json,
    serialize_json,
)
from repro.json.encode import JsonEncoder, json_alphabet, member_label
from repro.json.pipeline import (
    JSON_BUNDLE_FORMAT,
    JsonTransformation,
    json_codec,
    learn_json_transformation,
)

__all__ = [
    "JsonLinesParser",
    "JsonValue",
    "iter_json_documents",
    "parse_json",
    "serialize_json",
    "JsonEncoder",
    "json_alphabet",
    "member_label",
    "JSON_BUNDLE_FORMAT",
    "JsonTransformation",
    "json_codec",
    "learn_json_transformation",
]
