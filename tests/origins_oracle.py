"""Translation of value-bearing documents by origin tracking: a test oracle.

``Transformation.apply_batch`` runs every encoded document on the
compiled engine and recovers provenance from the machine's slot-map
memo (:meth:`~repro.engine.execute.Engine.slot_sources`).  The oracle
takes the independent road: the origin-tracking interpreter
:func:`~repro.transducers.origins.apply_with_origins` maps every output
node to the input node its rule read, both by preorder index, and each
output value slot takes the value found at that index.  Dewey addresses
are rebuilt from a parent table where a test names one.  Only the
encoders and the decoders are shared with the production path.
"""

from repro.errors import ReproError
from repro.transducers.origins import apply_with_origins


def parent_table(tree):
    """``(node, parent index, 1-based child index)`` per node of ``tree``
    in preorder; the root's parent index is -1."""
    rows = []
    stack = [(tree, -1, 0)]
    while stack:
        node, parent, index = stack.pop()
        here = len(rows)
        rows.append((node, parent, index))
        for child in range(len(node.children), 0, -1):
            stack.append((node.children[child - 1], here, child))
    return rows


def dewey(rows, index):
    """The Dewey address (1-based; root ``()``) of preorder ``index``."""
    path = []
    while rows[index][1] >= 0:
        _, parent, child = rows[index]
        path.append(child)
        index = parent
    return tuple(reversed(path))


def slot_ordinals(tree, labels):
    """«preorder index → slot ordinal» of the value slots of ``tree``."""
    indexes = [
        index
        for index, (node, _, _) in enumerate(parent_table(tree))
        if node.label in labels
    ]
    return {index: ordinal for ordinal, index in enumerate(indexes)}


def oracle_sources(transducer, source, labels):
    """``[[M]](source)`` and «output slot ordinal → input slot ordinal»,
    both from :func:`apply_with_origins` (raises outside the domain)."""
    output, origins = apply_with_origins(transducer, source)
    in_ordinal = slot_ordinals(source, labels)
    sources = {}
    for index, ordinal in slot_ordinals(output, labels).items():
        copied = in_ordinal.get(origins[index])
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
