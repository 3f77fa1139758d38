"""The asyncio network front-end: JSON-lines transforms over TCP.

Protocol — one JSON object per ``\\n``-terminated line, UTF-8:

``{"op": "transform", "model": "flip@1", "document": "...", "id": 7}``
    Transform one document in the model's codec syntax (term syntax for
    raw transducer models, XML or JSON for transformation bundles).
    Response:
    ``{"id": 7, "ok": true, "model": "flip@1", "document": "..."}`` or
    ``{"id": 7, "ok": false, "error": {"type": "...", "message": "..."}}``.
    Error types are the library's exception class names — a client can
    rebuild the exact exception, and messages are byte-identical to the
    local ``api.run`` path (pinned by the differential fuzz tests).
    ``"format": "packed"`` (transducer models only) answers with flat
    DAG records instead of rendered term text: payload ∝ *distinct*
    subtrees, encoding iterative — heavily shared or arbitrarily deep
    outputs ship cheaply where the recursive renderer cannot.

``{"op": "transform_stream", "model": "m", "content_length": N}``
    Followed by exactly ``N`` raw bytes in the codec's stream syntax:
    an XML stream whose root element wraps the documents (see
    :mod:`repro.serve.stream`), or JSON lines.  Documents are parsed
    incrementally, fed to the micro-batcher as
    their end tags arrive, and answered in order — one
    ``{"seq": i, "ok": ..., ...}`` line each — before a final
    ``{"done": true, "count": n, "failures": m}`` line.  The model
    entry is pinned for the whole stream: a hot reload mid-stream
    affects new requests, never the documents of an open stream.

``health`` / ``stats`` / ``models`` / ``metrics`` / ``profile`` /
``reload`` / ``shutdown``
    Admin plane: liveness (``status`` is ``"serving"``, or
    ``"degraded"`` while the supervisor has a shard in quarantine),
    the registry + batcher + per-model service counters, the model
    list, the metrics snapshot (per-model counters and latency
    quantiles as JSON, engine compile and per-backend counters
    folded in, plus the Prometheus text exposition under ``"text"``),
    the per-model engine profiler snapshot (hot rules, per-height
    sweep timings), a registry rescan, and graceful stop.

Tracing: ``"trace": true`` on a ``transform`` request returns the
request's span tree (decode → queue/batch.assemble → dispatch/execute →
encode) under ``"trace"`` in the response; ``trace_sample_rate`` and
``slow_ms`` record unsolicited traces server-side and emit them as
``trace.sample`` / ``trace.slow`` events on the
:class:`~repro.server.logging.EventLog`.

Observability: every server owns a
:class:`~repro.server.metrics.ServerMetrics` registry (request /
queue-wait / batch-assembly / dispatch latency histograms with
p50/p95/p99, per-model request and overload counters, crash / restart /
quarantine / reload-outcome counters), an
:class:`~repro.server.logging.EventLog` for structured JSON events, and
— for sharded models — a :class:`~repro.server.supervisor.ShardSupervisor`
reconciliation task that restarts crashed worker pools with exponential
backoff and quarantines flapping shards.

Admission control: every transform(_stream) document passes through the
micro-batcher's bounded pending queue; past the bound the server answers
an explicit ``OverloadedError`` response immediately — it never queues
unboundedly and never drops the connection.

All operational chatter (startup banner, final statistics) goes to
*stderr*; stdout stays clean for document output in the CLI paths.
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, Optional, Union

from repro.codec import TERM_CODEC
from repro.engine import artifact_stats, backend_stats
from repro.errors import (
    OverloadedError,
    RegistryError,
    ReproError,
    ServiceError,
)
from repro.obs.trace import NULL_TRACE, TraceContext
from repro.server.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_PENDING,
    DEFAULT_MAX_WAIT_MS,
    MicroBatcher,
)
from repro.server.logging import EventLog
from repro.server.metrics import ServerMetrics
from repro.server.registry import ModelRegistry
from repro.server.supervisor import ShardSupervisor
from repro.trees.tree import interned_count

#: Read size for transform_stream bodies.
STREAM_CHUNK_BYTES = 1 << 16

#: Bound on one request line (asyncio streams default to 64 KiB, which
#: a single large document blows through).  Oversized lines get a
#: structured bad-request response, not a dropped connection.
MAX_LINE_BYTES = 1 << 24

#: Protocol-level (non-library) error type tags.
BAD_REQUEST = "bad-request"


def _error_payload(
    error: Union[Exception, str], type_name: Optional[str] = None
) -> Dict:
    if isinstance(error, Exception):
        return {
            "type": type_name or type(error).__name__,
            "message": str(error),
        }
    return {"type": type_name or BAD_REQUEST, "message": str(error)}


class TransformServer:
    """The asyncio transformation server over one :class:`ModelRegistry`.

    Lifecycle::

        server = TransformServer(registry, port=0)
        await server.start()          # binds; server.port is the real port
        await server.serve_until_stopped()   # returns after request_stop()

    or from synchronous code use :func:`serve_forever` /
    :class:`ServerThread`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_pending: int = DEFAULT_MAX_PENDING,
        metrics: Optional[ServerMetrics] = None,
        events: Optional[EventLog] = None,
        supervise: bool = True,
        supervise_interval: float = 1.0,
        supervisor_options: Optional[Dict] = None,
        trace_sample_rate: float = 0.0,
        slow_ms: Optional[float] = None,
    ):
        self.registry = registry
        self.host = host
        self.port = port
        #: Fraction of transform requests traced unsolicited (0 disables
        #: sampling; a client's ``"trace": true`` always wins).  Sampled
        #: traces land on the event log as ``trace.sample`` events.
        self.trace_sample_rate = max(0.0, min(1.0, float(trace_sample_rate)))
        #: When set, *every* transform request is traced and those whose
        #: end-to-end latency reaches the threshold emit a ``trace.slow``
        #: event carrying the full span breakdown.
        self.slow_ms = slow_ms
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self.events = events if events is not None else EventLog(enabled=False)
        self.batcher = MicroBatcher(
            max_batch=max_batch,
            max_wait_ms=max_wait_ms,
            max_pending=max_pending,
            metrics=self.metrics,
        )
        self.supervisor: Optional[ShardSupervisor] = (
            ShardSupervisor(
                registry,
                self.metrics,
                self.events,
                interval=supervise_interval,
                **(supervisor_options or {}),
            )
            if supervise
            else None
        )
        self._supervisor_task: Optional[asyncio.Task] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._started_at = time.monotonic()
        self._stats = {"connections": 0, "requests": 0, "bad_requests": 0}
        self._conn_tasks: set = set()
        self._open_writers: set = set()
        #: Writers currently inside a request; shutdown must not hang
        #: up on these before their response is written.
        self._busy_writers: set = set()
        self._stopping = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting; resolves the real port for port 0."""
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.supervisor is not None:
            self._supervisor_task = asyncio.ensure_future(
                self.supervisor.run()
            )
        self.events.emit(
            "server.start",
            host=self.host,
            port=self.port,
            models=self.registry.keys(),
        )

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop`; then tear everything down."""
        if self._server is None:
            await self.start()
        await self._stop_event.wait()
        self._stopping = True
        self._server.close()
        # Hang up on *idle* connections so their handler tasks finish
        # before the loop does (a task alive at loop teardown logs a
        # spurious CancelledError from the streams machinery).  Busy
        # connections keep their transport: the in-flight request still
        # gets its response — including the shutdown errors the batcher
        # resolves pending futures to — and the handler loop exits via
        # the stopping flag right after writing it.
        for writer in list(self._open_writers - self._busy_writers):
            writer.close()
        await self._server.wait_closed()
        if self._conn_tasks:
            await asyncio.gather(
                *list(self._conn_tasks), return_exceptions=True
            )
        if self._supervisor_task is not None:
            self._supervisor_task.cancel()
            try:
                await self._supervisor_task
            except asyncio.CancelledError:
                pass
            self._supervisor_task = None
        await self.batcher.close()
        self.registry.close()
        self.events.emit(
            "server.stop",
            requests=self._stats["requests"],
            connections=self._stats["connections"],
        )

    def request_stop(self) -> None:
        """Signal a graceful stop (safe to call from the loop only)."""
        if self._stop_event is not None:
            self._stop_event.set()

    @property
    def stats(self) -> Dict[str, object]:
        snapshot = {
            "server": {
                **self._stats,
                "uptime_s": time.monotonic() - self._started_at,
                "host": self.host,
                "port": self.port,
            },
            "registry": self.registry.stats,
            "batcher": self.batcher.stats,
            "models": self.registry.describe(),
            "backends": backend_stats(),
            "engine_artifacts": artifact_stats(),
        }
        if self.supervisor is not None:
            snapshot["supervisor"] = self.supervisor.stats
        return snapshot

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._stats["connections"] += 1
        self.metrics.inc("repro_connections_total")
        self._conn_tasks.add(asyncio.current_task())
        self._open_writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The line blew through MAX_LINE_BYTES; the buffered
                    # rest is unframed, so answer and hang up.
                    self._note_bad_request()
                    await self._write(
                        writer,
                        {
                            "ok": False,
                            "error": _error_payload(
                                f"request line exceeds {MAX_LINE_BYTES} "
                                f"bytes (send large batches via "
                                f"transform_stream)"
                            ),
                        },
                    )
                    break
                if not line:
                    break
                self._busy_writers.add(writer)
                try:
                    await self._handle_line(line, reader, writer)
                finally:
                    self._busy_writers.discard(writer)
                if self._stopping:
                    break
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        finally:
            self._busy_writers.discard(writer)
            self._open_writers.discard(writer)
            self._conn_tasks.discard(asyncio.current_task())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _note_bad_request(self) -> None:
        self._stats["bad_requests"] += 1
        self.metrics.inc("repro_bad_requests_total")

    async def _write(self, writer: asyncio.StreamWriter, payload: Dict) -> None:
        writer.write(json.dumps(payload, ensure_ascii=False).encode() + b"\n")
        await writer.drain()

    async def _handle_line(
        self,
        line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._stats["requests"] += 1
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as error:
            self._note_bad_request()
            await self._write(
                writer,
                {"ok": False, "error": _error_payload(error, BAD_REQUEST)},
            )
            return
        request_id = request.get("id")
        op = request.get("op")
        handler = {
            "transform": self._op_transform,
            "transform_stream": self._op_transform_stream,
            "health": self._op_health,
            "stats": self._op_stats,
            "models": self._op_models,
            "metrics": self._op_metrics,
            "profile": self._op_profile,
            "reload": self._op_reload,
            "shutdown": self._op_shutdown,
        }.get(op)
        if handler is None:
            self._note_bad_request()
            await self._write(
                writer,
                {
                    "id": request_id,
                    "ok": False,
                    "error": _error_payload(f"unknown op {op!r}"),
                },
            )
            return
        await handler(request, reader, writer)

    # -- operations -----------------------------------------------------

    def _note_outcome(
        self,
        model_label: str,
        outcome: str,
        started_at: float,
        backend: Optional[str] = None,
    ) -> None:
        """The completion hook: request latency + outcome counter."""
        labels = {"model": model_label, "outcome": outcome}
        self.metrics.inc("repro_requests_total", labels)
        if backend is not None:
            self.metrics.inc(
                "repro_backend_requests_total",
                {"model": model_label, "backend": backend},
            )
        self.metrics.observe(
            "repro_request_seconds",
            {"model": model_label},
            max(0.0, time.monotonic() - started_at),
        )

    async def _op_transform(self, request, _reader, writer) -> None:
        started_at = time.monotonic()
        request_id = request.get("id")
        try:
            model = request["model"]
            document = request["document"]
        except KeyError as missing:
            self._note_bad_request()
            await self._write(
                writer,
                {
                    "id": request_id,
                    "ok": False,
                    "error": _error_payload(
                        f"transform requires a {missing.args[0]!r} field"
                    ),
                },
            )
            return
        response_format = request.get("format", "text")
        if response_format not in ("text", "packed"):
            self._note_bad_request()
            await self._write(
                writer,
                {
                    "id": request_id,
                    "ok": False,
                    "error": _error_payload(
                        f"unknown response format {response_format!r} "
                        f"(use 'text' or 'packed')"
                    ),
                },
            )
            return
        # Tracing: a client's ``"trace": true`` always records (and gets
        # the span tree in its response); otherwise the sampler or a
        # ``slow_ms`` watch may record unsolicited, landing on the event
        # log instead.  Untraced requests carry the falsy NULL_TRACE —
        # the fast path costs one truthiness check per span site.
        trace_requested = bool(request.get("trace"))
        sampled = (
            not trace_requested
            and self.trace_sample_rate > 0.0
            and random.random() < self.trace_sample_rate
        )
        trace = (
            TraceContext()
            if trace_requested or sampled or self.slow_ms is not None
            else NULL_TRACE
        )
        # Unresolvable names share one label value: metric cardinality
        # must not be client-controlled.
        model_label = "<unresolved>"
        outcome_label = "error"
        backend_label = None
        try:
            entry = self.registry.get(str(model))
            model_label = entry.key
            backend_label = entry.backend
            if response_format == "packed" and entry.codec is not TERM_CODEC:
                raise ServiceError(
                    f"model {entry.key} is a transformation bundle; "
                    f"the packed format serves raw transducer models"
                )
            with trace.span("decode", model=entry.key):
                tree = entry.codec.parse(str(document))
            outcome = await self.batcher.submit(entry, tree, trace=trace)
            if isinstance(outcome, Exception):
                response = {
                    "id": request_id,
                    "ok": False,
                    "model": entry.key,
                    "error": _error_payload(outcome),
                }
                if isinstance(outcome, OverloadedError):
                    outcome_label = "overload"
            elif response_format == "packed":
                outcome_label = "ok"
                with trace.span("encode", format="packed"):
                    packed = entry.render_packed(outcome)
                response = {
                    "id": request_id,
                    "ok": True,
                    "model": entry.key,
                    "packed": packed,
                }
            else:
                outcome_label = "ok"
                with trace.span("encode", format="text"):
                    rendered = entry.codec.render(outcome)
                response = {
                    "id": request_id,
                    "ok": True,
                    "model": entry.key,
                    "document": rendered,
                }
        except OverloadedError as error:
            outcome_label = "overload"
            response = {
                "id": request_id,
                "ok": False,
                "error": _error_payload(error),
            }
        except ReproError as error:
            response = {
                "id": request_id,
                "ok": False,
                "error": _error_payload(error),
            }
        except RecursionError:
            # Mirror the CLI's mapping: deep documents are a structured
            # failure, not a dropped connection (the engine itself is
            # iterative; parsing and text rendering are recursive —
            # packed responses render deep *outputs* fine).
            response = {
                "id": request_id,
                "ok": False,
                "error": _error_payload(
                    ReproError(
                        "document parsing or rendering exceeded the "
                        "recursion limit"
                    )
                ),
            }
        if trace_requested and trace:
            # The span tree the client asked for: it is serialized (and
            # the root closed) *before* the response is written, so it
            # never contains the write span of its own response.
            response["trace"] = trace.to_dict()
        self._note_outcome(
            model_label, outcome_label, started_at, backend_label
        )
        if trace:
            write_started = time.monotonic()
            await self._write(writer, response)
            trace.add_span("write", write_started, time.monotonic())
            self._finish_trace(
                trace, trace_requested, sampled, model_label,
                outcome_label, started_at,
            )
        else:
            await self._write(writer, response)

    def _finish_trace(
        self,
        trace: TraceContext,
        requested: bool,
        sampled: bool,
        model_label: str,
        outcome_label: str,
        started_at: float,
    ) -> None:
        """Post-response trace bookkeeping: counters and trace.* events.

        Runs after the response bytes are on the wire, so serializing
        the span tree for the event log never adds to request latency —
        only the overhead histogram knows it happened.
        """
        overhead_started = time.monotonic()
        trace.finish()
        elapsed_ms = (overhead_started - started_at) * 1000.0
        mode = "requested" if requested else ("sampled" if sampled else "watch")
        self.metrics.inc("repro_traces_total", {"mode": mode})
        if self.slow_ms is not None and elapsed_ms >= self.slow_ms:
            self.events.emit(
                "trace.slow",
                model=model_label,
                outcome=outcome_label,
                duration_ms=round(elapsed_ms, 3),
                threshold_ms=self.slow_ms,
                spans=trace.to_dict(),
            )
        elif sampled:
            self.events.emit(
                "trace.sample",
                model=model_label,
                outcome=outcome_label,
                duration_ms=round(elapsed_ms, 3),
                spans=trace.to_dict(),
            )
        self.metrics.observe(
            "repro_trace_overhead_seconds",
            None,
            max(0.0, time.monotonic() - overhead_started),
        )

    async def _op_transform_stream(self, request, reader, writer) -> None:
        """Chunked document-stream body → per-document response lines.

        The body is parsed by the model codec's stream parser: a forest
        of XML documents, or JSON lines (one document per line).  At most
        half of ``max_pending`` documents of one stream are outstanding
        at once: with the window full, the head-of-line document is
        answered before the next one is submitted, so a long body waits
        for the engine instead of shedding its tail as overloads.
        """
        request_id = request.get("id")

        async def fail(error, consumed_body: bool) -> None:
            # The body must always be drained, or it would be parsed as
            # protocol lines; only then answer with the failure.
            if not consumed_body:
                await self._drain_body(reader, request)
            await self._write(
                writer,
                {
                    "id": request_id,
                    "ok": False,
                    "done": True,
                    "error": _error_payload(error),
                },
            )

        try:
            model = str(request["model"])
            remaining = int(request["content_length"])
            if remaining < 0:
                raise ValueError("content_length must be non-negative")
        except (KeyError, TypeError, ValueError) as error:
            self._note_bad_request()
            await self._write(
                writer,
                {
                    "id": request_id,
                    "ok": False,
                    "done": True,
                    "error": _error_payload(
                        f"transform_stream needs 'model' and a numeric "
                        f"'content_length' ({error})"
                    ),
                },
            )
            return
        try:
            entry = self.registry.get(model)
        except RegistryError as error:
            await fail(error, consumed_body=False)
            return
        if entry.codec.stream_parser is None:
            await fail(
                ServiceError(
                    f"model {entry.key} is a raw transducer; "
                    f"transform_stream serves XML and JSON "
                    f"transformation bundles"
                ),
                consumed_body=False,
            )
            return

        # Pin the entry: a mid-stream hot reload must not swap machines
        # under the open stream (new requests see the new model).
        entry.acquire()
        parser = entry.codec.stream_parser()
        window = max(1, self.batcher.max_pending // 2)
        tasks = deque()  # per-document batcher futures, in stream order
        count = failures = 0

        async def answer_head() -> None:
            nonlocal count, failures
            count, failures = await self._answer_stream_document(
                writer, request_id, entry, count, failures, tasks.popleft()
            )

        async def submit(documents) -> None:
            for document in documents:
                if len(tasks) >= window:
                    await answer_head()
                tasks.append(
                    asyncio.ensure_future(
                        self._submit_stream_document(entry, document)
                    )
                )

        try:
            while remaining > 0:
                chunk = await reader.read(min(remaining, STREAM_CHUNK_BYTES))
                if not chunk:
                    raise ServiceError(
                        "connection closed inside a transform_stream body"
                    )
                remaining -= len(chunk)
                parser.feed(chunk)
                await submit(parser.ready())
                # Answer completed head-of-line documents while the body
                # is still arriving: bounded memory, ordered responses.
                while tasks and tasks[0].done():
                    await answer_head()
            await submit(parser.close())
            while tasks:
                await answer_head()
            await self._write(
                writer,
                {
                    "id": request_id,
                    "ok": failures == 0,
                    "done": True,
                    "count": count,
                    "failures": failures,
                },
            )
        except ReproError as error:
            for task in tasks:
                task.cancel()
            if remaining > 0:
                await self._drain_body(reader, {"content_length": remaining})
            await self._write(
                writer,
                {
                    "id": request_id,
                    "ok": False,
                    "done": True,
                    "count": count,
                    "failures": failures,
                    "error": _error_payload(error),
                },
            )
        finally:
            entry.release()

    async def _submit_stream_document(self, entry, document):
        """One stream document through the batcher; outcomes, not raises."""
        started_at = time.monotonic()
        try:
            outcome = await self.batcher.submit(entry, document)
        except ReproError as error:  # overload/shutdown → per-doc outcome
            outcome = error
        if isinstance(outcome, OverloadedError):
            label = "overload"
        elif isinstance(outcome, Exception):
            label = "error"
        else:
            label = "ok"
        self._note_outcome(entry.key, label, started_at, entry.backend)
        return outcome

    async def _answer_stream_document(
        self, writer, request_id, entry, count, failures, task
    ):
        outcome = await task
        response = {"id": request_id, "seq": count}
        if not isinstance(outcome, Exception):
            try:
                response["ok"] = True
                response["document"] = entry.codec.render(outcome)
            except RecursionError:
                outcome = ReproError(
                    "document rendering exceeded the recursion limit"
                )
        if isinstance(outcome, Exception):
            failures += 1
            response["ok"] = False
            response["error"] = _error_payload(outcome)
        count += 1
        await self._write(writer, response)
        return count, failures

    async def _drain_body(self, reader, request) -> None:
        """Discard an unread transform_stream body after an early error."""
        try:
            remaining = int(request.get("content_length", 0))
        except (TypeError, ValueError):
            return
        while remaining > 0:
            chunk = await reader.read(min(remaining, STREAM_CHUNK_BYTES))
            if not chunk:
                return
            remaining -= len(chunk)

    async def _op_health(self, request, _reader, writer) -> None:
        degraded = self.supervisor is not None and self.supervisor.degraded
        payload = {
            "id": request.get("id"),
            "ok": True,
            "status": "degraded" if degraded else "serving",
            "models": self.registry.keys(),
            "pending": self.batcher.pending,
            "uptime_s": time.monotonic() - self._started_at,
        }
        if self.supervisor is not None:
            payload["shards"] = self.supervisor.describe()
        await self._write(writer, payload)

    async def _op_metrics(self, request, _reader, writer) -> None:
        """The metrics snapshot (JSON) plus the Prometheus exposition.

        The snapshot folds in the process-wide engine counters — table
        compilations and the per-backend batch/hit tallies — so one
        scrape answers both "how is the server doing" and "which
        execution path is doing the work".
        """
        self._refresh_memory_metrics()
        snapshot = self.metrics.snapshot()
        snapshot["engine_artifacts"] = artifact_stats()
        snapshot["backends"] = backend_stats()
        await self._write(
            writer,
            {
                "id": request.get("id"),
                "ok": True,
                "metrics": snapshot,
                "text": self.metrics.render_prometheus(),
            },
        )

    def _refresh_memory_metrics(self) -> None:
        """Mirror engine memo sizes, evictions and intern-table size."""
        entries = []
        evictions = []
        for entry in self.registry.entries():
            engine = entry.peek_engine()
            if engine is None:
                continue
            stats = engine.cache_stats
            labels = {"model": entry.key}
            entries.append((labels, stats["entries"]))
            evictions.append((labels, stats["evictions"]))
        self.metrics.set_family("repro_engine_memo_entries", entries)
        self.metrics.set_family("repro_memo_evictions_total", evictions)
        self.metrics.set_family(
            "repro_intern_live", [(None, interned_count())]
        )

    async def _op_profile(self, request, _reader, writer) -> None:
        """Per-model engine profiler snapshots (hot rules, sweep times).

        ``{"op": "profile"}`` answers for every model whose engine has
        been built; ``"model"`` narrows to one.  Models that never
        compiled (no request reached them, no ``--warm``) are omitted —
        a profile of nothing would claim zeros it never measured.
        """
        model = request.get("model")
        try:
            if model is not None:
                entries = [self.registry.get(str(model))]
            else:
                entries = [
                    self.registry.get(key) for key in self.registry.keys()
                ]
        except RegistryError as error:
            await self._write(
                writer,
                {
                    "id": request.get("id"),
                    "ok": False,
                    "error": _error_payload(error),
                },
            )
            return
        profiles: Dict[str, Dict] = {}
        for entry in entries:
            snapshot = entry.profile()
            if snapshot is not None:
                profiles[entry.key] = snapshot
        await self._write(
            writer,
            {"id": request.get("id"), "ok": True, "profiles": profiles},
        )

    async def _op_stats(self, request, _reader, writer) -> None:
        await self._write(
            writer, {"id": request.get("id"), "ok": True, "stats": self.stats}
        )

    async def _op_models(self, request, _reader, writer) -> None:
        await self._write(
            writer,
            {
                "id": request.get("id"),
                "ok": True,
                "models": self.registry.describe(),
            },
        )

    async def _op_reload(self, request, _reader, writer) -> None:
        try:
            summary = self.registry.reload()
        except RegistryError as error:
            # Registry-level failure (unreadable directory, duplicate
            # keys): nothing changed, but the outcome is still recorded.
            self.metrics.inc("repro_reload_total", {"outcome": "failed"})
            self.events.emit("registry.reload", error=str(error))
            await self._write(
                writer,
                {
                    "id": request.get("id"),
                    "ok": False,
                    "error": _error_payload(error),
                },
            )
            return
        self._record_reload(summary)
        await self._write(
            writer, {"id": request.get("id"), "ok": True, "reload": summary}
        )

    def _record_reload(self, summary: Dict) -> None:
        """Reload outcomes land in metrics and the structured log —
        not only in the caller's return payload."""
        for outcome in ("loaded", "reloaded", "kept", "dropped", "failed"):
            count = len(summary.get(outcome, ()))
            if count:
                self.metrics.inc(
                    "repro_reload_total", {"outcome": outcome}, by=count
                )
        self.events.emit(
            "registry.reload",
            **{
                outcome: summary.get(outcome, [])
                for outcome in (
                    "loaded", "reloaded", "kept", "dropped", "failed",
                )
            },
        )

    async def _op_shutdown(self, request, _reader, writer) -> None:
        await self._write(
            writer, {"id": request.get("id"), "ok": True, "stopping": True}
        )
        self.request_stop()


# ---------------------------------------------------------------------------
# Synchronous entry points
# ---------------------------------------------------------------------------


def serve_forever(
    models_dir: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 7455,
    jobs: Optional[int] = None,
    max_batch: int = DEFAULT_MAX_BATCH,
    max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
    max_pending: int = DEFAULT_MAX_PENDING,
    stats: bool = False,
    metrics: bool = False,
    log_json: bool = False,
    backend: Optional[str] = None,
    warm: bool = False,
    trace_sample_rate: float = 0.0,
    slow_ms: Optional[float] = None,
) -> int:
    """Run a transformation server until SIGINT/SIGTERM; returns 0.

    Loads every model under ``models_dir`` (sharding each across
    ``jobs`` worker processes when ``jobs > 1``), binds ``host:port``
    (port ``0`` picks a free one), and serves until interrupted.  The
    startup banner — ``listening on HOST:PORT`` — and the optional final
    statistics go to stderr; stdout is never written.

    ``metrics=True`` (CLI ``--metrics``) additionally prints the final
    Prometheus text exposition to stderr on shutdown; a *live* scrape
    is always available through the ``metrics`` protocol verb
    (``ServerClient.metrics()`` / ``metrics_text()``).  ``log_json=True``
    (CLI ``--log-json``) streams structured one-line JSON events —
    startup, reload outcomes, shard crashes/restarts/quarantines,
    shutdown — to stderr.  ``backend`` (CLI ``--backend``) sets the
    server-wide execution backend default; per-model ``"backend"``
    artifact keys still win.  ``warm=True`` (CLI ``--warm``)
    compiles every model's engine — and prestarts the sharded pools —
    *before* the socket opens, so the first request never pays
    compilation (the banner reports how many engines it built).

    ``trace_sample_rate`` (CLI ``--trace-sample-rate``) traces that
    fraction of transform requests unsolicited, emitting each as a
    ``trace.sample`` event; ``slow_ms`` (CLI ``--slow-ms``) traces every
    request and emits a ``trace.slow`` event with the span breakdown for
    any whose end-to-end latency reaches the threshold.  Both event
    kinds reach stderr only under ``log_json=True``.
    """
    registry = ModelRegistry(models_dir, jobs=jobs, backend=backend)
    if warm:
        print(
            f"repro server warmed {registry.warm()} engines",
            file=sys.stderr,
            flush=True,
        )
    server = TransformServer(
        registry,
        host=host,
        port=port,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        max_pending=max_pending,
        events=EventLog(stream=sys.stderr, enabled=log_json),
        trace_sample_rate=trace_sample_rate,
        slow_ms=slow_ms,
    )

    async def _run() -> None:
        await server.start()
        loop = asyncio.get_running_loop()
        try:
            import signal

            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, server.request_stop)
        except (ImportError, NotImplementedError):  # pragma: no cover
            pass  # platforms without POSIX signal handling
        print(
            f"repro server listening on {server.host}:{server.port} "
            f"({len(registry.keys())} models: "
            f"{', '.join(registry.keys()) or 'none'})",
            file=sys.stderr,
            flush=True,
        )
        await server.serve_until_stopped()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler platforms
        pass
    if stats:
        _print_stats(server)
    if metrics:
        print(server.metrics.render_prometheus(), file=sys.stderr, flush=True)
    print("repro server stopped", file=sys.stderr, flush=True)
    return 0


def _print_stats(server: TransformServer) -> None:
    """Final server statistics, on stderr (stdout stays pipeable)."""
    snapshot = server.stats
    for section in ("server", "registry", "batcher"):
        counters = snapshot[section]
        line = ", ".join(
            f"{key} {value if not isinstance(value, float) else round(value, 3)}"
            for key, value in counters.items()
        )
        print(f"stats: {section}: {line}", file=sys.stderr, flush=True)


class ServerThread:
    """A server on a background thread — tests, benchmarks, fixtures.

    ::

        with ServerThread("models/", jobs=2, max_wait_ms=5) as handle:
            client = ServerClient(handle.host, handle.port)

    The context exit requests a graceful stop and joins the thread; the
    registry and batcher are torn down on the loop before it finishes.
    """

    def __init__(self, models_dir: Union[str, Path], **server_kwargs):
        self._models_dir = models_dir
        self._jobs = server_kwargs.pop("jobs", None)
        self._backend = server_kwargs.pop("backend", None)
        self._warm = server_kwargs.pop("warm", False)
        self._server_kwargs = server_kwargs
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.server: Optional[TransformServer] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        try:
            registry = ModelRegistry(
                self._models_dir, jobs=self._jobs, backend=self._backend
            )
        except BaseException as error:  # surface on __enter__
            self._failure = error
            self._ready.set()
            return
        if self._warm:
            registry.warm()

        async def _main() -> None:
            self.server = TransformServer(registry, **self._server_kwargs)
            await self.server.start()
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.server.serve_until_stopped()

        try:
            asyncio.run(_main())
        except BaseException as error:  # pragma: no cover - debug aid
            self._failure = error
            self._ready.set()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=60)
        if self._failure is not None:
            raise self._failure
        if self.server is None:
            raise ServiceError("server thread failed to start in time")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
        self._thread.join(timeout=60)
        if self._thread.is_alive():  # pragma: no cover - hang diagnostics
            raise ServiceError("server thread did not stop within 60 s")

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()
