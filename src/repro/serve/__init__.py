"""Sharded parallel serving of compiled transformations.

The serving layer scales the compiled engine of :mod:`repro.engine`
from "one process, one materialized forest" to "a pool of worker
processes fed by a stream":

:mod:`repro.serve.shard`
    picklable engine payloads (tables packed once per worker), an
    iterative sharing-preserving forest codec, and DAG-aware
    cost-balanced chunking.

:mod:`repro.serve.stream`
    streaming ingestion — the one XML reader
    (:class:`~repro.xml.xmlio.StreamParser`) and the JSON-lines reader
    are fed in chunks from any source, and forest-mode documents are
    flushed to the service as their end tags arrive, without
    materializing the stream.

:mod:`repro.serve.service`
    :class:`~repro.serve.service.TransformService` — submit/map/close,
    bounded in-flight chunks (backpressure), worker-crash recovery with
    per-document :class:`~repro.errors.ServiceError` outcomes, and
    per-shard statistics.  Parallel and serial paths are byte-identical
    (pinned by ``tests/fuzz`` and ``tests/serve``).

Entry points for users: ``api.run_batch(..., parallel=N)``,
:meth:`Transformation.apply_batch(..., jobs=N)
<repro.codec.Transformation.apply_batch>` / ``apply_stream(...)`` for
every codec, and the CLI ``serve`` / ``apply --jobs N [--stream]``
modes.
"""

from repro.serve.service import TransformService
from repro.serve.shard import (
    chunk_forest,
    decode_forest,
    encode_forest,
    forest_costs,
    pack_engine,
    unpack_engine,
)
from repro.serve.stream import StreamParser, iter_stream_documents

__all__ = [
    "TransformService",
    "encode_forest",
    "decode_forest",
    "forest_costs",
    "chunk_forest",
    "pack_engine",
    "unpack_engine",
    "StreamParser",
    "iter_stream_documents",
]
