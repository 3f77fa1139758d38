"""One transformation over any document format: codecs (Section 10).

The paper's XML pipeline encodes a document as a ranked tree, runs the
learned DTOP, and decodes the output, putting character data back
through origin tracking.  Nothing in that loop is XML-specific, so it
lives here once, parametrized by a :class:`Codec`:

* ``parse`` / ``render`` — request text ↔ document;
* ``input_encoder.encode_with_values(document)`` → ``(ranked tree,
  {ordinal: value})`` and ``output_encoder.decode(tree, values,
  counts)`` → document; ``value_labels`` name the value slots, and a
  value is keyed by the preorder ordinal of its slot among the slots.
  An output slot takes the value of the input slot its rule was reading,
  found in the machine's slot-map memo
  (:meth:`~repro.engine.execute.Engine.slot_sources`, memoized per
  ``(state, input subtree)``); ``counts`` is the batch's slot-count memo
  of the decoder, which counts the value slots of the subtrees it skips;
* ``stream_parser()`` — an incremental ``feed``/``ready``/``close``
  parser for served stream bodies, and ``read_stream(source)`` — the
  documents of a local stream file, read through the same parser class
  (``None``: the format has no stream syntax);
* ``bundle_format`` and ``bundle_fields`` — how a saved artifact names
  and describes the codec.

Three codecs exist: :data:`TERM_CODEC` (raw ``repro/dtop@1`` machines,
the paper's term syntax, identity encoding, no values),
:func:`repro.xml.pipeline.xml_codec` (the DTD-based encoding) and
:func:`repro.json.pipeline.json_codec` (the schema-less JSON encoding).
A new document format is one more codec object; :class:`Transformation`,
the model registry, the server and the CLI need no change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from repro.automata.dtta import DTTA
from repro.engine import engine_for
from repro.errors import ParseError, ReproError
from repro.obs.trace import NULL_TRACE
from repro.serialize import (
    FORMAT_DTOP,
    dtop_from_data,
    dtop_to_data,
    dtta_from_data,
    dtta_to_data,
    shape_errors,
)
from repro.transducers.dtop import DTOP
from repro.trees.tree import parse_term


@dataclass(frozen=True, eq=False)
class Codec:
    """How one document format meets the ranked trees a DTOP reads.

    ``rebuild(input_encoder, output_encoder)`` makes the codec of a
    composed chain (the first stage's input side, the last stage's
    output side); ``input_schema``/``output_schema`` are what must agree
    between adjacent stages.
    """

    name: str
    parse: Callable[[str], Any]
    render: Callable[[Any], str]
    input_encoder: Any
    output_encoder: Any
    rebuild: Callable[[Any, Any], "Codec"]
    value_labels: Tuple[str, ...] = ()
    stream_parser: Optional[Callable[[], Any]] = None
    read_stream: Optional[Callable[[Any], Iterable]] = None
    bundle_format: str = FORMAT_DTOP
    bundle_fields: Dict[str, Any] = field(default_factory=dict)
    input_schema: Optional[str] = None
    output_schema: Optional[str] = None
    #: Why encoding can exhaust the recursion limit (error messages).
    encoder_note: str = "the encoder is recursive"

    def iter_stream(self, source):
        """Yield the documents of a stream file, incrementally."""
        if self.read_stream is None:
            raise ReproError(f"{self.name} documents have no stream syntax")
        return self.read_stream(source)


class _IdentityEncoder:
    """Term documents are the ranked trees themselves; no values."""

    @staticmethod
    def encode_with_values(tree):
        return tree, {}

    @staticmethod
    def decode(tree, values=None, counts=None):
        return tree


#: The codec of raw transducer artifacts: term syntax in and out.
TERM_CODEC = Codec(
    name="dtop",
    parse=parse_term,
    render=str,
    input_encoder=_IdentityEncoder,
    output_encoder=_IdentityEncoder,
    rebuild=lambda _input, _output: TERM_CODEC,
)


@dataclass
class Transformation:
    """A DTOP between two document formats (hand-written or learned).

    ``apply`` works on documents of the codec; values are carried
    through by provenance — each output value leaf takes the value of
    the input position the emitting rule was reading.
    """

    transducer: DTOP
    codec: Codec
    domain: Optional[DTTA] = None
    learned: Optional[Any] = None

    def apply(self, document):
        """Transform one document: :meth:`apply_batch` on a batch of one,
        raising the outcome when it is an error."""
        (outcome,) = self.apply_batch([document])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def _decode_with_values(self, source, output, values: Dict, counts: Dict):
        """Decode ``output = [[M]](source)`` with the ``values`` it copies;
        ``counts`` is the batch's slot-count memo for the decoder."""
        out_values = {}
        if values:
            sources = engine_for(self.transducer).slot_sources(
                source, self.codec.value_labels
            )
            out_values = {o: values[i] for o, i in sources.items() if i in values}
        return self.codec.output_encoder.decode(output, out_values, counts)

    def apply_batch(
        self,
        documents: Iterable,
        jobs: Optional[int] = None,
        service=None,
        trace=None,
    ) -> List:
        """Transform a batch of documents; per-document outcomes.

        Every encoded document is translated through the compiled batch
        engine in **one** bottom-up sweep (:mod:`repro.engine`), so
        structure shared between them is paid for once.  Values stay in
        the side tables while the engine runs; the machine's slot-map
        memo then says which input slot each output slot copies.  All
        failures (non-conforming, out-of-domain, or nested too deeply
        for the encoders and decoders, which recurse once per nesting
        level) are reported per document without aborting the batch.

        ``jobs > 1`` shards the batch across a worker pool
        (:class:`~repro.serve.service.TransformService`) created for
        this call; pass a live ``service`` (built over
        ``self.transducer``) instead to amortize the pool across many
        batches — the streaming path of :meth:`apply_stream` does.
        Outcomes are identical either way.  A ``trace`` collects the
        encode/execute/decode spans.
        """
        if trace is None:
            trace = NULL_TRACE
        codec = self.codec
        prepared: List[Union[Tuple, ReproError]] = []
        with trace.span("pipeline.encode", codec=codec.name):
            for document in documents:
                try:
                    prepared.append(codec.input_encoder.encode_with_values(document))
                except ReproError as error:
                    prepared.append(error)
                except RecursionError:
                    prepared.append(
                        ReproError(
                            "document encoding exceeded the recursion limit "
                            f"({codec.encoder_note})"
                        )
                    )
        engine_inputs = [
            entry[0] for entry in prepared if not isinstance(entry, ReproError)
        ]
        if service is not None:
            raw_outcomes = service.run_batch_outcomes(engine_inputs, trace=trace)
        elif jobs is not None and jobs > 1:
            from repro.serve import TransformService

            with TransformService(self.transducer, jobs=jobs) as pool:
                raw_outcomes = pool.run_batch_outcomes(
                    engine_inputs, trace=trace
                )
        else:
            engine = engine_for(self.transducer)
            with trace.span("execute", documents=len(engine_inputs)):
                raw_outcomes = engine.run_batch_outcomes(engine_inputs)
        outcomes = iter(raw_outcomes)
        counts: Dict[int, int] = {}
        results: List = []
        with trace.span("pipeline.decode", codec=codec.name):
            for entry in prepared:
                output = entry if isinstance(entry, ReproError) else next(outcomes)
                if isinstance(output, Exception):
                    results.append(output)
                    continue
                encoded, values = entry
                try:
                    results.append(
                        self._decode_with_values(encoded, output, values, counts)
                    )
                except ReproError as error:
                    results.append(error)
                except RecursionError:
                    results.append(
                        ReproError(
                            "document translation exceeded the recursion "
                            f"limit ({codec.name.upper()} decoding recurses "
                            "once per nesting level)"
                        )
                    )
        return results

    def apply_stream(
        self,
        documents: Iterable,
        jobs: Optional[int] = None,
        chunk_docs: int = 64,
    ):
        """Transform a document stream incrementally; yields outcomes.

        Documents are consumed ``chunk_docs`` at a time — pair this with
        :meth:`Codec.iter_stream` and the whole corpus is never
        materialized: memory is bounded by one chunk (plus the pool's
        in-flight window).  With ``jobs > 1`` one worker pool is created
        up front and amortized across every chunk.  Outcomes stream back
        in input order and are identical to :meth:`apply_batch` on the
        materialized list.
        """
        service = None
        try:
            if jobs is not None and jobs > 1:
                from repro.serve import TransformService

                service = TransformService(self.transducer, jobs=jobs)
            window: List = []
            for document in documents:
                window.append(document)
                if len(window) >= chunk_docs:
                    yield from self.apply_batch(window, service=service)
                    window = []
            if window:
                yield from self.apply_batch(window, service=service)
        finally:
            if service is not None:
                service.close()

    @property
    def num_states(self) -> int:
        return len(self.transducer.states)

    @property
    def num_rules(self) -> int:
        return len(self.transducer.rules)

    # -- artifacts ------------------------------------------------------

    def to_bundle(self) -> dict:
        """The artifact dict: a raw machine, or transducer + domain + codec."""
        machine = dtop_to_data(self.transducer)
        if self.codec.bundle_format == FORMAT_DTOP:
            return machine
        return {
            "format": self.codec.bundle_format,
            "transducer": machine,
            "domain": dtta_to_data(self.domain),
            **self.codec.bundle_fields,
        }

    def save(self, path: Union[str, Path]) -> None:
        """Write :meth:`to_bundle` as JSON; load with :func:`load_transformation`.

        Raw machines end in a newline, as :func:`repro.serialize.dump`
        writes them; bundles do not.
        """
        text = json.dumps(self.to_bundle(), indent=2, ensure_ascii=False)
        if self.codec.bundle_format == FORMAT_DTOP:
            text += "\n"
        Path(path).write_text(text)


def _bundle_codecs() -> Dict[str, Callable[[dict], Codec]]:
    """Bundle format → codec reader (imported late: the readers import us)."""
    from repro.json.pipeline import JSON_BUNDLE_FORMAT, json_codec
    from repro.xml.pipeline import XML_BUNDLE_FORMAT, xml_codec_from_bundle

    return {
        XML_BUNDLE_FORMAT: xml_codec_from_bundle,
        JSON_BUNDLE_FORMAT: lambda _bundle: json_codec(),
    }


def transformation_from_bundle(data: Any) -> Transformation:
    """Rebuild a transformation from parsed artifact data.

    Accepts raw ``repro/dtop@1`` machines (the term codec) and every
    codec's bundle format.  A malformed artifact raises
    :class:`~repro.errors.ParseError` naming its format.
    """
    fmt = data.get("format") if isinstance(data, dict) else None
    if fmt == FORMAT_DTOP:
        with shape_errors(fmt):
            return Transformation(dtop_from_data(data), TERM_CODEC)
    readers = _bundle_codecs()
    if fmt not in readers:
        raise ParseError(
            f"unknown format {fmt!r}: not a transducer or transformation "
            f"bundle (expected {', '.join([FORMAT_DTOP, *readers])})"
        )
    with shape_errors(fmt):
        codec = readers[fmt](data)
        return Transformation(
            dtop_from_data(data["transducer"]),
            codec,
            dtta_from_data(data["domain"]),
        )


def load_transformation(path: Union[str, Path]) -> Transformation:
    """Load any artifact written by :meth:`Transformation.save`."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, ValueError) as error:
        raise ReproError(f"cannot read {path}: {error}") from None
    try:
        return transformation_from_bundle(data)
    except ReproError as error:
        raise ReproError(f"cannot load {path}: {error}") from None


def compose_transformations(
    transformations: List[Transformation],
    labels: List[str],
    earliest: bool = False,
) -> Transformation:
    """Fuse a chain (in application order) into one transformation.

    Every stage must share one codec, and each stage's output schema
    must equal the next stage's input schema (DTDs for XML; the term and
    JSON codecs are schema-less).  ``labels`` name the stages in errors.
    """
    from repro.transducers.compose import compose_chain

    for index in range(1, len(transformations)):
        left = transformations[index - 1].codec
        right = transformations[index].codec
        if left.name != right.name:
            raise ReproError(
                f"cannot compose {labels[index - 1]} ({left.name}) with "
                f"{labels[index]} ({right.name}): a chain needs one codec"
            )
        if left.output_schema != right.input_schema:
            raise ReproError(
                f"cannot compose: the output schema of {labels[index - 1]} "
                f"does not match the input schema of {labels[index]}"
            )
    first, last = transformations[0], transformations[-1]
    return Transformation(
        compose_chain(
            [t.transducer for t in transformations],
            earliest=earliest,
            labels=labels,
        ),
        first.codec.rebuild(first.codec.input_encoder, last.codec.output_encoder),
        first.domain,
    )
