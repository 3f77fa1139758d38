"""Translation of value-bearing documents by origin tracking: a test oracle.

``Transformation.apply_batch`` runs every encoded document on the
compiled engine and recovers provenance from the engine's output with
:func:`~repro.transducers.origins.value_sources`.  The oracle takes the
independent road: the origin-tracking interpreter
:func:`~repro.transducers.origins.apply_with_origins` maps every output
node to the Dewey address of the input node its rule read, and each
output value slot takes the value found at that address.  Only the
encoders and the decoders are shared with the production path.
"""

from repro.errors import ReproError
from repro.transducers.origins import apply_with_origins


def slot_addresses(tree, labels):
    """Dewey addresses of the value slots of ``tree``, in preorder."""
    return [address for address, node in tree.subtrees() if node.label in labels]


def oracle_sources(transducer, source, labels):
    """``[[M]](source)`` and «output slot ordinal → input slot ordinal»,
    both from :func:`apply_with_origins` (raises outside the domain)."""
    output, origins = apply_with_origins(transducer, source)
    in_ordinal = {
        address: ordinal
        for ordinal, address in enumerate(slot_addresses(source, labels))
    }
    sources = {
        ordinal: in_ordinal[origins[address]]
        for ordinal, address in enumerate(slot_addresses(output, labels))
        if origins[address] in in_ordinal
    }
    return output, sources


def oracle_outcome(transformation, document):
    """The translated document, or the ``ReproError`` it fails with."""
    codec = transformation.codec
    try:
        source, values = codec.input_encoder.encode_with_values(document)
        output, sources = oracle_sources(
            transformation.transducer, source, codec.value_labels
        )
        out_values = {
            slot: values[copied]
            for slot, copied in sources.items()
            if copied in values
        }
        return codec.output_encoder.decode(output, out_values)
    except ReproError as error:
        return error


def outcome_bytes(codec, outcome):
    """Rendered output, or error type and message."""
    if isinstance(outcome, Exception):
        return (type(outcome).__name__, str(outcome))
    return ("document", codec.render(outcome))
