"""The network transformation server.

This package turns the sharded serving stack of :mod:`repro.serve`
into an actual multi-tenant network service:

:mod:`repro.server.registry`
    named, versioned models loaded from a directory of JSON artifacts
    (raw transducers, XML and JSON bundles, fused pipelines — each one
    :class:`~repro.codec.Transformation` with its codec), with hot reload
    through the library-wide ``clear_caches`` invalidation contract and
    deferred teardown while requests are in flight.

:mod:`repro.server.batcher`
    latency-bounded micro-batching — concurrent single-document
    requests coalesce into hash-consed forests under ``max_batch`` /
    ``max_wait_ms`` and dispatch to the compiled engine or a sharded
    :class:`~repro.serve.service.TransformService`, with per-request
    outcomes and a bounded admission queue.

:mod:`repro.server.app`
    the asyncio JSON-lines protocol (``transform``,
    ``transform_stream``, ``health``, ``stats``, ``models``,
    ``reload``, ``shutdown``), :func:`~repro.server.app.serve_forever`
    for the CLI, and :class:`~repro.server.app.ServerThread` for
    in-process fixtures.

:mod:`repro.server.client`
    a small blocking client with byte-identical error round-tripping.

:mod:`repro.server.metrics`
    the lock-cheap in-process metrics registry — per-model counters,
    gauges, and streaming latency histograms with quantile estimation —
    served by the ``metrics`` protocol verb both as a structured
    snapshot and as Prometheus text exposition.

:mod:`repro.server.supervisor`
    the periodic shard supervisor: crash detection from service stats,
    restart with exponential backoff, quarantine of flapping shards
    (degrading them to in-process serving), all observable through
    metrics and the structured event log.

:mod:`repro.server.logging`
    one-line JSON structured events (``--log-json``) for startup,
    reloads, shard lifecycle, and shutdown.

Entry points for users: ``api.serve_forever(models_dir, ...)``,
``api.connect(host, port)``, and the CLI ``repro server`` /
``repro apply --remote HOST:PORT``.
"""

from repro.server.app import ServerThread, TransformServer, serve_forever
from repro.server.batcher import MicroBatcher
from repro.server.client import ServerClient
from repro.server.logging import EventLog
from repro.server.metrics import Histogram, ServerMetrics, validate_exposition
from repro.server.registry import ModelEntry, ModelRegistry
from repro.server.supervisor import ShardSupervisor

__all__ = [
    "ModelEntry",
    "ModelRegistry",
    "MicroBatcher",
    "TransformServer",
    "ServerThread",
    "serve_forever",
    "ServerClient",
    "ServerMetrics",
    "Histogram",
    "validate_exposition",
    "EventLog",
    "ShardSupervisor",
]
