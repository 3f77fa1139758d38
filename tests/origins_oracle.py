"""Translation of value-bearing documents by origin tracking: a test oracle.

``Transformation.apply_batch`` runs every encoded document on the
compiled engine and recovers provenance from the engine's output with
:func:`~repro.transducers.origins.value_sources`.  The oracle takes the
independent road: the origin-tracking interpreter
:func:`~repro.transducers.origins.apply_with_origins` maps every output
node to the address of the input node its rule read, and each output
value slot takes the value found at that address.  Addresses are
parent-linked, as the interpreter's are, and flattened to Dewey tuples
only where two of them are compared.  Only the
encoders and the decoders are shared with the production path.
"""

from repro.errors import ReproError
from repro.transducers.origins import apply_with_origins


def dewey(address):
    """The Dewey tuple (1-based; root ``()``) of a parent-linked address."""
    path = []
    while address:
        address, index = address
        path.append(index)
    return tuple(reversed(path))


def slot_addresses(tree, labels):
    """Parent-linked addresses of the value slots of ``tree``, in preorder."""
    found = []
    stack = [((), tree)]
    while stack:
        address, node = stack.pop()
        if node.label in labels:
            found.append(address)
        for index in range(len(node.children), 0, -1):
            stack.append(((address, index), node.children[index - 1]))
    return found


def oracle_sources(transducer, source, labels):
    """``[[M]](source)`` and «output slot ordinal → input slot ordinal»,
    both from :func:`apply_with_origins` (raises outside the domain)."""
    output, origins = apply_with_origins(transducer, source)
    in_ordinal = {
        dewey(address): ordinal
        for ordinal, address in enumerate(slot_addresses(source, labels))
    }
    out_ordinal = {
        dewey(address): ordinal
        for ordinal, address in enumerate(slot_addresses(output, labels))
    }
    sources = {}
    for out_address, in_address in origins.items():
        ordinal = out_ordinal.get(dewey(out_address))
        if ordinal is None:
            continue
        copied = in_ordinal.get(dewey(in_address))
        if copied is not None:
            sources[ordinal] = copied
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
