"""End-to-end learning of XML-to-XML transformations (Section 10).

Given input and output DTDs and example document pairs, the pipeline

1. encodes both sides with the DTD-based encoding,
2. builds the domain DTTA from the input DTD,
3. runs ``RPNI_dtop`` on the encoded pairs, and
4. wraps the learned transducer as a
   :class:`~repro.codec.Transformation` over :func:`xml_codec`, which
   encodes → transduces → decodes, rehydrating character data by
   provenance.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Tuple

from repro.codec import Codec, Transformation
from repro.learning.rpni import rpni_dtop
from repro.learning.sample import Sample
from repro.serve.stream import StreamParser, iter_stream_documents
from repro.xml.dtd import DTD, parse_dtd
from repro.xml.encode import DTDEncoder
from repro.xml.schema import schema_dtta
from repro.xml.unranked import UTree
from repro.xml.xmlio import parse_xml, serialize_xml

# perfbench's layer recorder wraps this name where it finds it here; no
# translation calls it (it is the provenance oracle of the tests).
from repro.transducers.origins import apply_with_origins  # noqa: F401

#: The transformation type of XML models (one class serves every codec).
XMLTransformation = Transformation

#: Bundle format written by ``repro learn --save``.
XML_BUNDLE_FORMAT = "repro/xml-transformation@1"


def xml_codec(input_encoder: DTDEncoder, output_encoder: DTDEncoder) -> Codec:
    """The XML codec: documents are DTD-encoded on either side.

    Streams are XML forests (the root element wraps the documents).
    Served stream bodies drop attributes, as served documents do; local
    stream files reject them.  The bundle records both DTDs and the
    encoding flags.
    """
    input_dtd = input_encoder.dtd.describe()
    output_dtd = output_encoder.dtd.describe()
    return Codec(
        name="xml",
        parse=partial(parse_xml, ignore_attributes=True),
        render=serialize_xml,
        input_encoder=input_encoder,
        output_encoder=output_encoder,
        rebuild=xml_codec,
        value_labels=output_encoder.value_labels,
        stream_parser=partial(StreamParser, ignore_attributes=True, forest=True),
        read_stream=iter_stream_documents,
        bundle_format=XML_BUNDLE_FORMAT,
        bundle_fields={
            "input_dtd": input_dtd,
            "input_start": input_encoder.dtd.start,
            "output_dtd": output_dtd,
            "output_start": output_encoder.dtd.start,
            "flags": {
                "fuse_input": input_encoder.fuse,
                "fuse_output": output_encoder.fuse,
                "compact_lists": input_encoder.compact_lists,
                "abstract_values": input_encoder.abstract_values,
            },
        },
        input_schema=input_dtd,
        output_schema=output_dtd,
        encoder_note="the DTD encoder recurses once per element nesting level",
    )


def xml_codec_from_bundle(bundle: dict) -> Codec:
    """Rebuild the codec of a ``repro/xml-transformation@1`` bundle."""
    flags = bundle["flags"]
    encoders = [
        DTDEncoder(
            parse_dtd(bundle[f"{side}_dtd"], start=bundle[f"{side}_start"]),
            fuse=flags[f"fuse_{side}"],
            compact_lists=flags["compact_lists"],
            abstract_values=flags["abstract_values"],
        )
        for side in ("input", "output")
    ]
    return xml_codec(*encoders)


def learn_xml_transformation(
    input_dtd: DTD,
    output_dtd: DTD,
    examples: Iterable[Tuple[UTree, UTree]],
    fuse_input: bool = False,
    fuse_output: bool = False,
    compact_lists: bool = False,
    abstract_values: bool = False,
) -> Transformation:
    """Learn an XML transformation from document pairs and both DTDs.

    The examples must form (a superset of) a characteristic sample of the
    target transformation over the DTD-encoded trees; otherwise
    :class:`~repro.errors.InsufficientSampleError` explains what is
    missing.  With ``compact_lists=True`` (path-closed list encoding)
    document examples alone can be characteristic; with the paper's
    encoding some transformations additionally need path-closure trees
    (see :class:`~repro.xml.encode.DTDEncoder`).
    """
    input_encoder = DTDEncoder(
        input_dtd,
        fuse=fuse_input,
        compact_lists=compact_lists,
        abstract_values=abstract_values,
    )
    output_encoder = DTDEncoder(
        output_dtd,
        fuse=fuse_output,
        compact_lists=compact_lists,
        abstract_values=abstract_values,
    )
    sample = Sample(
        (input_encoder.encode(source), output_encoder.encode(target))
        for source, target in examples
    )
    learned = rpni_dtop(sample, schema_dtta(input_encoder))
    return Transformation(
        learned.dtop,
        xml_codec(input_encoder, output_encoder),
        learned.domain,
        learned,
    )
