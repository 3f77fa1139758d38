"""End-to-end JSON-to-JSON transformations over the ranked encoding.

:func:`json_codec` is the JSON sibling of :func:`repro.xml.pipeline.xml_codec`:
a :class:`~repro.codec.Transformation` over it encodes → transduces →
decodes, rehydrating scalar values by provenance.  Because
the encoding is schema-less, one :class:`~repro.json.encode.JsonEncoder`
serves both sides.

``learn_json_transformation`` runs ``RPNI_dtop`` on encoded example
pairs with the local-DTTA domain heuristic (the encoding language is
local in exactly the sense of
:func:`repro.automata.build.local_dtta_from_trees`).

Artifacts: :data:`JSON_BUNDLE_FORMAT` (``repro/json-transformation@1``)
bundles the transducer and the domain automaton; the server registry
serves them next to the XML bundles with the same hot-reload and
micro-batching machinery.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.automata.build import local_dtta_from_trees
from repro.automata.dtta import DTTA
from repro.codec import Codec, Transformation
from repro.learning.rpni import rpni_dtop
from repro.learning.sample import Sample
from repro.xml.encode import VALUE_LABELS

from repro.json.encode import JsonEncoder
from repro.json.jsonio import (
    JsonLinesParser,
    JsonValue,
    iter_json_documents,
    parse_json,
    serialize_json,
)

# perfbench's layer recorder wraps this name where it finds it here; no
# translation calls it (it is the provenance oracle of the tests).
from repro.transducers.origins import apply_with_origins  # noqa: F401

#: The transformation type of JSON models (one class serves every codec).
JsonTransformation = Transformation

#: Registry artifact format for served JSON transformations.
JSON_BUNDLE_FORMAT = "repro/json-transformation@1"


def json_codec(encoder: Optional[JsonEncoder] = None) -> Codec:
    """The JSON codec: one schema-less encoder on both sides.

    Streams are JSON lines; the bundle stores no codec state — a fresh
    encoder registers keys as documents arrive.
    """
    encoder = encoder if encoder is not None else JsonEncoder()
    return Codec(
        name="json",
        parse=parse_json,
        render=serialize_json,
        input_encoder=encoder,
        output_encoder=encoder,
        rebuild=lambda input_encoder, _output: json_codec(input_encoder),
        value_labels=VALUE_LABELS,
        stream_parser=JsonLinesParser,
        read_stream=iter_json_documents,
        bundle_format=JSON_BUNDLE_FORMAT,
        encoder_note="the JSON encoder is recursive over nesting",
    )


def learn_json_transformation(
    examples: Iterable[Tuple[JsonValue, JsonValue]],
    domain: Optional[DTTA] = None,
) -> Transformation:
    """Learn a JSON transformation from example value pairs.

    The examples must form (a superset of) a characteristic sample of
    the target over the encoded trees.  Without an explicit ``domain``
    the local-DTTA heuristic infers one from the encoded inputs (the
    encoding language is local, so the heuristic is exact on
    key-complete examples).
    """
    encoder = JsonEncoder()
    sample = Sample(
        (encoder.encode(source), encoder.encode(target))
        for source, target in examples
    )
    if domain is None:
        domain = local_dtta_from_trees([pair[0] for pair in sample.pairs])
    learned = rpni_dtop(sample, domain)
    return Transformation(
        learned.dtop, json_codec(encoder), learned.domain, learned
    )
