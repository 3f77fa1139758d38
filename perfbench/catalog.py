"""Every metric the benchmark reports, with its unit.

``END_TO_END`` metrics are printed by every untraced run (``--trace 0``)
and ``PER_LAYER`` metrics by every traced run (``--trace 1``), on every
workload.  A per-layer metric whose layer does no work on a workload
reads 0 there; ``PER_LAYER`` says on which workload each one is measured.
``BENCHMARK.json`` lists the same names and units.
"""

from __future__ import annotations

SERVE, STREAM, LEARN = "serve-mixed", "stream-distinct", "learn-random"
WORKLOADS = (SERVE, STREAM, LEARN)

#: name → unit.  What an "op" is depends on the workload: one transform
#: request (serve-mixed), one stream document for ``ops_per_s`` and one
#: stream body for the latencies (stream-distinct), one learned target
#: (learn-random).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "rss_peak_mb": "MB",
}

#: name → (unit, workloads that measure it).
PER_LAYER = {
    # server.app: span tree of traced requests.
    "app.decode_p50_ms": ("ms", (SERVE,)),
    "app.encode_p50_ms": ("ms", (SERVE,)),
    "app.encode_p99_ms": ("ms", (SERVE,)),
    "wire.p50_ms": ("ms", (SERVE,)),
    # server.batcher: span tree, plus the always-on metrics verb.
    "batcher.queue_p50_ms": ("ms", (SERVE,)),
    "batcher.queue_p99_ms": ("ms", (SERVE,)),
    "batcher.assemble_p50_ms": ("ms", (SERVE,)),
    "batcher.hop_p50_ms": ("ms", (SERVE,)),
    "batcher.batch_docs_mean": ("count", (SERVE, STREAM)),
    "batcher.overloads": ("count", (SERVE, STREAM)),
    "untraced.queue_wait_mean_ms": ("ms", (SERVE, STREAM)),
    "untraced.batch_assembly_mean_ms": ("ms", (SERVE, STREAM)),
    "untraced.dispatch_mean_ms": ("ms", (SERVE, STREAM)),
    "untraced.request_mean_ms": ("ms", (SERVE, STREAM)),
    # server.registry with engine.compile / engine.artifacts / compose.
    "registry.boot_ms": ("ms", (SERVE, STREAM)),
    "registry.compiles": ("count", (SERVE, STREAM)),
    "registry.sidecar_hits": ("count", (SERVE, STREAM)),
    # xml.encode / json.encode and the pipelines' decode.
    "xml.encode_p50_ms": ("ms", (SERVE, STREAM)),
    "xml.encode_p99_ms": ("ms", (SERVE, STREAM)),
    "json.encode_p50_ms": ("ms", (SERVE, STREAM)),
    "pipeline.decode_p50_ms": ("ms", (SERVE, STREAM)),
    # transducers.origins: the recursive interpreter value-bearing
    # bundle documents run through instead of the engine.
    "origins.p50_ms": ("ms", (SERVE, STREAM)),
    "origins.doc_share": ("ratio", (SERVE, STREAM)),
    # engine.execute / engine.backends.
    "engine.execute_p50_ms": ("ms", (SERVE, STREAM, LEARN)),
    "engine.memo_hit_ratio": ("ratio", (SERVE, STREAM)),
    "engine.memo_entries": ("count", (SERVE, STREAM)),
    # serve.stream / json.jsonio: body parse time.
    "stream.parse_p50_ms": ("ms", (STREAM,)),
    # transducers.minimize, learning.charset, learning.rpni.
    "minimize.canonicalize_p50_ms": ("ms", (LEARN,)),
    "charset.sample_p50_ms": ("ms", (LEARN,)),
    "charset.sample_nodes": ("count", (LEARN,)),
    "rpni.learn_p50_ms": ("ms", (LEARN,)),
    "rpni.learn_p99_ms": ("ms", (LEARN,)),
    "rpni.ok_states_mean": ("count", (LEARN,)),
    "rpni.merges_mean": ("count", (LEARN,)),
    "rpni.merge_lookups_mean": ("count", (LEARN,)),
    "rpni.table_misses_mean": ("count", (LEARN,)),
    # Self-time shares: of the request span (serve-mixed), of the
    # per-target learning time (learn-random).
    "share.request": ("ratio", (SERVE,)),
    "share.decode": ("ratio", (SERVE,)),
    "share.queue": ("ratio", (SERVE,)),
    "share.batch.assemble": ("ratio", (SERVE,)),
    "share.dispatch": ("ratio", (SERVE,)),
    "share.pipeline.encode": ("ratio", (SERVE,)),
    "share.execute": ("ratio", (SERVE,)),
    "share.pipeline.decode": ("ratio", (SERVE,)),
    "share.encode": ("ratio", (SERVE,)),
    "share.canonicalize": ("ratio", (LEARN,)),
    "share.sample": ("ratio", (LEARN,)),
    "share.rpni": ("ratio", (LEARN,)),
    # Untraced over traced ops_per_s, minus one.
    "trace.overhead_share": ("ratio", WORKLOADS),
}
