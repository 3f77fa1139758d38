"""Load-driven micro-batching of concurrent transform requests.

A network server sees single-document requests; the compiled engine and
the sharded :class:`~repro.serve.service.TransformService` are fastest
on *forests* (hash-consed sharing makes overlapping documents nearly
free, and one dispatch amortizes the executor hop and the pool's codec
work over the whole batch).  :class:`MicroBatcher` bridges the two:

* each model entry has at most one dispatch in flight — a
  :class:`TransformService` is single-consumer — while distinct models
  translate concurrently;
* a request for an idle entry dispatches on the next event-loop turn;
  requests that arrive in the same turn, or while the entry's dispatch
  runs, join the next batch, which holds at most ``max_batch``
  documents.  A lone request never waits on a clock, and batches grow
  only under load;
* a batch runs on the event loop itself when its entry is unsharded,
  its engine is already compiled, it empties the entry's queue, and
  its documents together weigh at most :data:`INLINE_WEIGHT` parsed
  nodes; every other batch runs in a thread-pool executor.  For a small
  document the thread hop costs more than the translation (about
  0.26 ms against 0.04 ms of engine time).  A heavier batch, a sharded
  entry's pool call, an engine compile and a backlog of batches (a
  stream of small documents) never hold the loop;
* outcomes are **per request**: a document outside the domain resolves
  its own request to the engine's exact
  :class:`~repro.errors.UndefinedTransductionError` and never fails the
  rest of the coalesced batch.  Only an infrastructure failure of the
  whole dispatch (a :class:`~repro.errors.ServiceError` pool loss)
  resolves every member — still as per-request outcomes, never as a
  dropped connection;
* admission is bounded: once ``max_pending`` requests are admitted and
  not yet resolved, :meth:`submit` raises
  :class:`~repro.errors.OverloadedError` immediately instead of
  queueing — the explicit overload response of the protocol layer.

``max_batch=1`` degrades to per-request dispatch (the benchmark
baseline); semantics are identical either way, pinned by the
differential server tests.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.errors import OverloadedError, ServiceError
from repro.obs.trace import Span, TraceContext
from repro.server.metrics import ServerMetrics
from repro.server.registry import ModelEntry
from repro.trees.tree import Tree
from repro.xml.unranked import UTree

#: One admitted request: (document, future, admitted-at, trace).
_Pending = Tuple[object, asyncio.Future, float, Optional[TraceContext]]

#: Default documents per coalesced batch.
DEFAULT_MAX_BATCH = 32
#: Default bound on admitted-but-unresolved requests.
DEFAULT_MAX_PENDING = 1024
#: Heaviest batch, in parsed document nodes, that runs on the event loop.
#: Distinct value-bearing JSON documents cost the most per node, about
#: 35-40 µs in ``run_batch`` on a 2-CPU host, so a batch at this bound
#: holds the loop for about 5 ms.  That is the interpreter's switch
#: interval: a pure-Python batch on an executor thread keeps the GIL
#: about that long before the loop thread can take it back, so an
#: inline batch delays other connections no longer than a hop would.
#: Every serve-mixed benchmark document (at most 99 nodes) runs inline.
#: The weight is counted after parsing, never from the request text: a
#: 294-byte ``library@1`` request of nested internal-subset entities
#: expands to 10,000 books and 1.3 s of ``run_batch``.
INLINE_WEIGHT = 128


def document_weight(document) -> int:
    """The node count of a parsed document, counted only to just past
    :data:`INLINE_WEIGHT` (a heavier document is over the bound however
    heavy it is).

    The count is taken after parsing, never from the request text: a
    few hundred bytes of nested internal-subset entities can expand to
    thousands of XML elements.  A ranked :class:`Tree` knows its size;
    a :class:`UTree` or a JSON value is walked.
    """
    if isinstance(document, Tree):
        return document.size
    count = 1
    stack = [document]
    while stack:
        node = stack.pop()
        if isinstance(node, UTree):
            children = node.children
        elif isinstance(node, dict):
            children = node.values()
        elif isinstance(node, (list, tuple)):
            children = node
        else:
            continue
        count += len(children)
        if count > INLINE_WEIGHT:
            break
        stack.extend(children)
    return count


class MicroBatcher:
    """Coalesce concurrent single-document requests into forest batches.

    Drive it from one event loop::

        batcher = MicroBatcher(max_batch=32)
        outcome = await batcher.submit(entry, document)

    ``submit`` returns the request's outcome — an output tree, or the
    per-document exception instance (callers decide whether to raise or
    to render a structured error response).
    """

    def __init__(
        self,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_pending: int = DEFAULT_MAX_PENDING,
        executor: Optional[ThreadPoolExecutor] = None,
        metrics: Optional[ServerMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_batch < 1:
            raise ServiceError("max_batch must be at least 1")
        if max_pending < 0:
            raise ServiceError("max_pending must be non-negative")
        self.max_batch = max_batch
        self.max_pending = max_pending
        #: Latency histograms + counters; a fresh registry when the
        #: caller (the server) did not share one — recording is always
        #: on, it is too cheap to gate.
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self._clock = clock
        self._executor = executor or ThreadPoolExecutor(
            max_workers=8, thread_name_prefix="repro-batch"
        )
        self._own_executor = executor is None
        #: Pending (document, future, admitted-at, trace) tuples per
        #: live entry (by identity: a hot reload replaces the entry
        #: object, so an old entry's pending batch drains on the machine
        #: it was admitted to).  ``trace`` is ``None`` on untraced
        #: requests — the overwhelmingly common case.
        self._pending: Dict[ModelEntry, List[_Pending]] = {}
        #: Entries with a dispatch scheduled or in flight.
        self._busy: Set[ModelEntry] = set()
        self._admitted = 0
        self._closed = False
        self._stats = {
            "requests": 0,
            "batches": 0,
            "documents": 0,
            "coalesced": 0,
            "max_batch_seen": 0,
            "errors": 0,
            "overloads": 0,
            "dispatch_failures": 0,
        }

    # -- public API -----------------------------------------------------

    @property
    def pending(self) -> int:
        """Requests admitted and not yet resolved."""
        return self._admitted

    @property
    def stats(self) -> Dict[str, object]:
        return {
            **self._stats,
            "pending": self._admitted,
            "max_batch": self.max_batch,
            "max_pending": self.max_pending,
        }

    async def submit(
        self,
        entry: ModelEntry,
        document,
        trace: Optional[TraceContext] = None,
    ):
        """Admit one document for ``entry``; await its outcome.

        Raises :class:`OverloadedError` (without queueing) when the
        pending bound is reached, and :class:`ServiceError` after
        :meth:`close`.  Any other failure is *returned* as the
        request's outcome, exception instances included.  A ``trace``
        collects this request's queue/dispatch/execute spans.
        """
        if self._closed:
            raise ServiceError("batcher is closed")
        if self._admitted >= self.max_pending:
            # Refused at admission: counted as an overload, *never*
            # recorded in the queue-wait histogram — the request waited
            # in no queue (the overload regression tests pin this).
            self._stats["overloads"] += 1
            self.metrics.inc(
                "repro_overloads_total", {"model": entry.key}
            )
            raise OverloadedError(
                f"server overloaded: {self._admitted} requests pending "
                f"(bound {self.max_pending}); retry later"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._admitted += 1
        self._stats["requests"] += 1
        entry.acquire()
        try:
            self._pending.setdefault(entry, []).append(
                (document, future, self._clock(), trace if trace else None)
            )
            if entry not in self._busy:
                # The next loop turn, not now: requests arriving in this
                # turn (one stream chunk, a burst of clients) join it.
                self._busy.add(entry)
                loop.call_soon(self._flush, entry)
            return await future
        finally:
            self._admitted -= 1
            entry.release()

    async def close(self) -> None:
        """Resolve every queued request to a shutdown error; idempotent.

        Batches already taken for dispatch finish on the executor,
        which this joins; no batch is taken after close.
        """
        if self._closed:
            return
        self._closed = True
        batches = list(self._pending.values())
        self._pending.clear()
        for batch in batches:
            for _document, future, _admitted_at, _trace in batch:
                if not future.done():
                    future.set_result(ServiceError("server shutting down"))
        # One loop turn, so a batch taken for dispatch just before close
        # reaches the executor before it shuts down; nothing queued is
        # left to take.
        await asyncio.sleep(0)
        if self._own_executor:
            self._executor.shutdown(wait=True)

    # -- batching internals ---------------------------------------------

    def _flush(self, entry: ModelEntry) -> None:
        """Take up to ``max_batch`` of the entry's pending requests and
        run them; with none pending, the entry goes idle.

        Runs one loop turn after an idle entry's first admission, and
        again when each executor dispatch completes.  An inline batch
        empties the queue (nothing is admitted while it runs), so the
        entry goes idle after it.  Assembly time — first admission to
        taken for dispatch — is recorded here, per batch.
        """
        queue = self._pending.pop(entry, None)
        if not queue:
            self._busy.discard(entry)
            return
        batch = queue[: self.max_batch]
        backlog = queue[self.max_batch :]
        if backlog:
            self._pending[entry] = backlog
        labels = {"model": entry.key}
        taken_at = self._clock()
        self.metrics.observe(
            "repro_batch_assembly_seconds",
            labels,
            max(0.0, taken_at - batch[0][2]),
        )
        self.metrics.observe("repro_batch_documents", labels, len(batch))
        if not backlog and self._runs_inline(entry, batch):
            args, batch_trace, started = self._begin(entry, batch)
            try:
                outcomes = entry.run_batch(*args)
            except Exception as error:  # infrastructure, not per-document
                outcomes = error
            self._resolve(
                entry, batch, taken_at, started, batch_trace, outcomes
            )
            self._busy.discard(entry)
            return
        dispatch = asyncio.ensure_future(
            self._dispatch(entry, batch, taken_at)
        )
        # However the dispatch ends, the entry takes its next batch.
        dispatch.add_done_callback(lambda _done: self._flush(entry))

    @staticmethod
    def _runs_inline(entry: ModelEntry, batch: List[_Pending]) -> bool:
        """Whether the entry's last queued ``batch`` runs on the event
        loop: an unsharded entry whose engine is compiled (a first batch
        compiles it, off the loop), and members that together weigh at
        most :data:`INLINE_WEIGHT`."""
        if entry.sharded or entry.peek_engine() is None:
            return False
        budget = INLINE_WEIGHT
        for document, *_rest in batch:
            budget -= document_weight(document)
            if budget < 0:
                return False
        return True

    async def _dispatch(
        self, entry: ModelEntry, batch: List[_Pending], taken_at: float
    ) -> None:
        """Translate one batch in the executor; resolve its futures."""
        args, batch_trace, started = self._begin(entry, batch)
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(
                self._executor, entry.run_batch, *args
            )
        except Exception as error:  # infrastructure, not per-document
            outcomes = error
        self._resolve(entry, batch, taken_at, started, batch_trace, outcomes)

    def _begin(
        self, entry: ModelEntry, batch: List[_Pending]
    ) -> Tuple[tuple, Optional[TraceContext], float]:
        """Count a batch and record its members' queue waits.

        Returns the ``run_batch`` arguments, the batch's shared trace
        (``None`` when no member is traced) and the dispatch start.
        """
        documents = [document for document, *_rest in batch]
        self._stats["batches"] += 1
        self._stats["documents"] += len(batch)
        if len(batch) > 1:
            self._stats["coalesced"] += len(batch)
        self._stats["max_batch_seen"] = max(
            self._stats["max_batch_seen"], len(batch)
        )
        labels = {"model": entry.key}
        # One shared collector for the execute spans of this batch:
        # ``run_batch`` records into it, and its spans are grafted under
        # every traced member's dispatch span afterwards (a batch runs
        # once however many members watch it).
        any_traced = any(item[3] is not None for item in batch)
        batch_trace = TraceContext(name="batch") if any_traced else None
        started = self._clock()
        for _document, _future, admitted_at, *_rest in batch:
            self.metrics.observe(
                "repro_queue_wait_seconds",
                labels,
                max(0.0, started - admitted_at),
            )
        args = (documents,)
        if batch_trace is not None:
            args = (documents, batch_trace)
        return args, batch_trace, started

    def _resolve(
        self,
        entry: ModelEntry,
        batch: List[_Pending],
        taken_at: float,
        dispatch_started: float,
        batch_trace: Optional[TraceContext],
        outcomes,
    ) -> None:
        """Record a finished dispatch and resolve its members' futures.

        ``outcomes`` is the ``run_batch`` result, or the exception that
        failed the whole dispatch: every member then resolves to it as
        a :class:`ServiceError`.
        """
        if isinstance(outcomes, Exception):
            self._stats["dispatch_failures"] += 1
            error = outcomes
            if not isinstance(error, ServiceError):
                error = ServiceError(
                    f"batch dispatch failed: {type(error).__name__}: {error}"
                )
            outcomes = [error] * len(batch)
        dispatch_ended = self._clock()
        self.metrics.observe(
            "repro_dispatch_seconds",
            {"model": entry.key},
            max(0.0, dispatch_ended - dispatch_started),
        )
        self._stats["errors"] += sum(
            1 for outcome in outcomes if isinstance(outcome, Exception)
        )
        if batch_trace is not None:
            executed = batch_trace.root.children
            for _document, _future, admitted_at, trace in batch:
                if trace is None:
                    continue
                queue_span = trace.add_span(
                    "queue", admitted_at, dispatch_started
                )
                # The slice of this member's wait until its batch was
                # taken for dispatch; the rest is the hop to the task.
                assemble = Span("batch.assemble", admitted_at)
                assemble.ended = taken_at
                queue_span.children.append(assemble)
                trace.add_span(
                    "dispatch",
                    dispatch_started,
                    dispatch_ended,
                    meta={"batch_documents": len(batch)},
                    children=executed,
                )
        for (_document, future, *_rest), outcome in zip(batch, outcomes):
            if not future.done():
                future.set_result(outcome)
