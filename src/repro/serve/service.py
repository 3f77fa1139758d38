"""The sharded, parallel transformation service.

:class:`TransformService` runs one compiled transducer over arbitrarily
many input trees, optionally across a pool of worker processes:

* inputs are grouped into chunks (``chunk_size`` documents, cut further
  by the DAG-aware :func:`~repro.serve.shard.chunk_forest` when a whole
  forest is mapped at once);
* the compiled engine tables are packed **once**
  (:func:`~repro.serve.shard.pack_engine`) and shipped to every worker
  by the pool initializer — workers never re-compile and never see the
  source machine;
* at most ``max_pending`` chunks are in flight: :meth:`submit` blocks
  once the bound is reached, which is the service's backpressure — a
  slow pool throttles a fast producer instead of buffering the world;
* results come back **in submission order** with per-document outcomes
  exactly matching :meth:`Engine.run_batch_outcomes` — an output tree,
  or the interpreter-identical
  :class:`~repro.errors.UndefinedTransductionError`;
* a worker crash breaks every in-flight chunk; each is retried once on
  a fresh pool, and a chunk that dies twice (it carries the poison
  document) resolves to per-document :class:`~repro.errors.ServiceError`
  outcomes instead of taking the service down;
* :meth:`DTOP.clear_caches <repro.transducers.dtop.DTOP.clear_caches>`
  invalidates the machine's compiled engine; the service notices the
  stale handle at the next dispatch, re-packs the tables, and restarts
  the pool, so a live pool can never serve stale tables.

With ``jobs`` ≤ 1 the service degrades to the in-process engine with
identical semantics (and zero serialization) — the differential tests
pin parallel ≡ serial byte-for-byte.
"""

from __future__ import annotations

import atexit
import multiprocessing
import signal
import threading
import weakref
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Union

from repro.engine import engine_for
from repro.errors import ServiceError, UndefinedTransductionError
from repro.obs.trace import Span, TraceContext, span_from_dict
from repro.serve import shard
from repro.trees.tree import Tree
from repro.transducers.dtop import DTOP

#: What one document resolves to.
Outcome = Union[Tree, UndefinedTransductionError, ServiceError]

#: Retries per chunk after a pool break before giving up on it.
MAX_CHUNK_RETRIES = 1

#: Every live service, so abandoned ones (a crashed server, a test that
#: never reached ``close``) still shut their worker pools down at
#: interpreter exit instead of leaking processes.  Weak: a service the
#: caller dropped can be collected normally — its pool's own atexit
#: machinery handles the workers — and ``close()`` deregisters eagerly.
_LIVE_SERVICES: "weakref.WeakSet[TransformService]" = weakref.WeakSet()


@atexit.register
def _close_live_services() -> None:
    """Interpreter-exit safety net: close every service still open."""
    for service in list(_LIVE_SERVICES):
        try:
            service.close()
        except Exception:  # pragma: no cover - last-resort cleanup
            pass


def _submit_with_worker_signals_blocked(
    executor: ProcessPoolExecutor, *args
) -> Future:
    """``executor.submit(shard.worker_translate, *args)`` with SIGTERM
    and SIGINT blocked in this thread.

    A submit may fork the pool's workers, and a forked child starts with
    the forking thread's signal mask.  A signal aimed at a fresh worker
    (the executor terminating survivors of a broken pool) then stays
    pending until :func:`~repro.serve.shard.init_worker` has detached
    the worker from the parent's wakeup pipe and unblocks it, instead of
    reaching the parent's event loop through that pipe.
    """
    blocked = (signal.SIGTERM, signal.SIGINT)
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, blocked)
    try:
        return executor.submit(shard.worker_translate, *args)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


def _pool_context():
    """Fork when the platform has it (cheap, inherits the payload page
    cache); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None
    )


class _Chunk:
    """One dispatched chunk: its inputs and eventually its outcomes."""

    __slots__ = ("trees", "future", "executor", "outcomes", "attempts", "trace")

    def __init__(
        self, trees: List[Tree], trace: Optional[TraceContext] = None
    ):
        self.trees = trees
        self.future = None
        self.executor = None  # the pool the future was submitted to
        self.outcomes: Optional[List[Outcome]] = None
        self.attempts = 0
        #: The requesting trace; its id rides the chunk to the worker and
        #: the worker's execute spans are grafted back at resolution.
        self.trace = trace


class TransformService:
    """Submit/iterate/close interface over a sharded transducer pool.

    Use as a context manager, or call :meth:`close` explicitly::

        with TransformService(machine, jobs=4) as service:
            for outcome in service.map(forest):
                ...

    ``jobs``
        worker processes; ``None``/``0``/``1`` run in-process.
    ``chunk_size``
        documents per dispatched chunk on the :meth:`submit` path.
    ``max_pending``
        chunks allowed in flight before :meth:`submit` blocks
        (default ``2 × jobs``).
    ``backend``
        execution backend name for the serial path and every worker
        (``None`` defers to ``REPRO_BACKEND`` / the ``tables`` default);
        resolved at first dispatch and shipped in the worker payload.
    """

    def __init__(
        self,
        transducer: DTOP,
        jobs: Optional[int] = None,
        chunk_size: int = 32,
        max_pending: Optional[int] = None,
        backend: Optional[str] = None,
    ):
        if chunk_size < 1:
            raise ServiceError("chunk_size must be at least 1")
        self._transducer = transducer
        self._backend = backend
        self.jobs = max(1, jobs or 1)
        self.chunk_size = chunk_size
        self.max_pending = max_pending if max_pending else 2 * self.jobs
        self._parallel = self.jobs > 1
        self._executor: Optional[ProcessPoolExecutor] = None
        #: Guards executor replacement: dispatches run on the batcher's
        #: executor threads while a supervisor may restart the pool from
        #: the event loop — the swap itself must be atomic.
        self._pool_lock = threading.Lock()
        self._payload: Optional[tuple] = None
        self._source_engine = None
        self._pending_docs: List[Tree] = []
        self._inflight: Deque[_Chunk] = deque()
        #: Sub-queue of ``_inflight``: chunks whose future is unresolved.
        #: Resolution is strictly oldest-first, so this is a suffix.
        self._unresolved: Deque[_Chunk] = deque()
        self._closed = False
        self._stats: Dict[str, int] = {
            "chunks": 0,
            "documents": 0,
            "errors": 0,
            "crashes": 0,
            "pool_restarts": 0,
            "repacks": 0,
        }
        self._shard_stats: Dict[int, Dict[str, int]] = {}
        _LIVE_SERVICES.add(self)

    # -- pool management ------------------------------------------------

    def _ensure_fresh(self) -> None:
        """(Re)pack tables and (re)start the pool when the machine's
        engine handle changed — the ``clear_caches`` invalidation path."""
        engine = engine_for(self._transducer, self._backend)
        if engine is self._source_engine:
            return
        self._source_engine = engine
        if self._parallel:
            self._payload = shard.pack_engine(engine.compiled, engine.backend)
            self._stats["repacks"] += 1
            with self._pool_lock:
                if self._executor is not None:
                    self._executor.shutdown(wait=True)
                    self._executor = None
                    self._stats["pool_restarts"] += 1

    def _pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=_pool_context(),
                    initializer=shard.init_worker,
                    initargs=(self._payload,),
                )
            return self._executor

    def _restart_pool(self) -> None:
        with self._pool_lock:
            if self._executor is not None:
                self._executor.shutdown(wait=False)
                self._executor = None
        self._stats["pool_restarts"] += 1

    # -- supervision hooks ----------------------------------------------

    def pool_broken(self) -> bool:
        """Whether the current worker pool has lost a process.

        The executor flags itself broken as soon as its management
        thread sees a worker die — usually before any dispatch
        discovers it — which is what lets a supervisor react to a crash
        between requests.
        """
        executor = self._executor
        return bool(executor is not None and getattr(executor, "_broken", False))

    def warm(self) -> None:
        """Pack tables and start the worker pool now (parallel only).

        Dispatch does all of this lazily; warming moves the fork cost
        off the first request's latency — and off the restart path.
        """
        if self._closed or not self._parallel:
            return
        self._ensure_fresh()
        self._pool()

    def restart(self) -> bool:
        """Supervised restart: discard a broken pool, prestart a fresh one.

        Safe against a concurrent dispatch: only a pool the executor
        itself reports broken is discarded (its in-flight chunks fail
        over through the existing retry path — a break from a replaced
        pool never touches the fresh one), and the replacement is warmed
        before returning.  Returns ``False`` on closed or in-process
        services, ``True`` after a restart.
        """
        if self._closed or not self._parallel:
            return False
        if self.pool_broken():
            self._restart_pool()
        self.warm()
        return True

    # -- dispatch and collection ----------------------------------------

    def _dispatch(
        self, trees: List[Tree], trace: Optional[TraceContext] = None
    ) -> None:
        if not trees:
            return
        self._ensure_fresh()
        chunk = _Chunk(trees, trace if trace else None)
        self._stats["chunks"] += 1
        self._stats["documents"] += len(trees)
        if self._parallel:
            # Backpressure: block until the pool has room for this chunk
            # (resolved-but-unconsumed chunks no longer hold pool slots).
            while len(self._unresolved) >= self.max_pending:
                self._resolve(self._unresolved[0])
            trace_id = chunk.trace.trace_id if chunk.trace else None
            encoded = shard.encode_forest(trees)
            try:
                chunk.future = _submit_with_worker_signals_blocked(
                    self._pool(), encoded, trace_id
                )
            except BrokenProcessPool:
                # The pool died under an earlier chunk and nothing has
                # collected the break yet; dispatch on a fresh one.
                self._stats["crashes"] += 1
                self._restart_pool()
                chunk.future = _submit_with_worker_signals_blocked(
                    self._pool(), encoded, trace_id
                )
            chunk.executor = self._executor
            chunk.attempts += 1
            self._unresolved.append(chunk)
        elif chunk.trace:
            with chunk.trace.span(
                "execute",
                backend=self._source_engine.backend,
                documents=len(trees),
                jobs=1,
            ):
                chunk.outcomes = list(
                    self._source_engine.run_batch_outcomes(trees)
                )
        else:
            chunk.outcomes = list(
                self._source_engine.run_batch_outcomes(trees)
            )
        self._inflight.append(chunk)

    def _resolve(self, chunk: _Chunk) -> None:
        """Block until ``chunk`` has outcomes, handling pool breakage."""
        if chunk.outcomes is not None:
            return
        try:
            self._resolve_future(chunk)
        finally:
            if self._unresolved and self._unresolved[0] is chunk:
                self._unresolved.popleft()

    def _resolve_future(self, chunk: _Chunk) -> None:
        while True:
            try:
                result = chunk.future.result()
            except BrokenProcessPool:
                self._stats["crashes"] += 1
                # Only tear down the pool the dead future belonged to; a
                # break from an already-replaced pool must not take the
                # current healthy one (and its in-flight chunks) down.
                if chunk.executor is self._executor:
                    self._restart_pool()
                if chunk.attempts > MAX_CHUNK_RETRIES:
                    error = ServiceError(
                        "worker process crashed while translating this "
                        "document's chunk (retry exhausted)"
                    )
                    chunk.outcomes = [error for _ in chunk.trees]
                    self._stats["errors"] += len(chunk.trees)
                    return
                chunk.future = _submit_with_worker_signals_blocked(
                    self._pool(),
                    shard.encode_forest(chunk.trees),
                    chunk.trace.trace_id if chunk.trace else None,
                )
                chunk.executor = self._executor
                chunk.attempts += 1
                continue
            # Untraced workers return the historical 3-tuple; traced ones
            # append a trace record (worker-minted trace id + spans).
            pid, records, encoded = result[0], result[1], result[2]
            trace_record = result[3] if len(result) > 3 else None
            chunk.outcomes = shard.decode_outcomes(records, encoded)
            if chunk.trace and trace_record is not None:
                self._graft_worker_trace(chunk, trace_record)
            self._stats["errors"] += sum(
                1 for o in chunk.outcomes if not isinstance(o, Tree)
            )
            per_shard = self._shard_stats.setdefault(
                pid, {"chunks": 0, "documents": 0}
            )
            per_shard["chunks"] += 1
            per_shard["documents"] += len(chunk.outcomes)
            return

    @staticmethod
    def _graft_worker_trace(chunk: _Chunk, trace_record: Dict) -> None:
        """Land the worker-side spans in the requesting trace.

        The grafted ``execute`` span's duration is the worker's own
        measurement of its translate call, and its meta carries the
        trace id the *worker process* minted — the proof that a sharded
        worker, not the parent, ran the sweep.
        """
        worker_root = span_from_dict(trace_record["spans"])
        execute = Span(
            "execute",
            0.0,
            {
                "worker_trace_id": trace_record["trace_id"],
                "pid": trace_record["pid"],
                "documents": len(chunk.trees),
            },
        )
        execute.ended = worker_root.duration_s
        execute.children = worker_root.children
        chunk.trace.attach(execute)

    def _drain_head(self) -> Iterator[Outcome]:
        """Yield the outcomes of the oldest in-flight chunk."""
        chunk = self._inflight.popleft()
        self._resolve(chunk)
        for outcome in chunk.outcomes:
            yield outcome

    # -- public API -----------------------------------------------------

    def submit(self, tree: Tree) -> None:
        """Queue one input; dispatches a chunk every ``chunk_size`` docs.

        Blocks when ``max_pending`` chunks are already in flight.
        """
        if self._closed:
            raise ServiceError("service is closed")
        self._pending_docs.append(tree)
        if len(self._pending_docs) >= self.chunk_size:
            self._dispatch(self._pending_docs)
            self._pending_docs = []

    def results(self) -> Iterator[Outcome]:
        """Yield every outcome submitted so far, in submission order.

        Flushes the partial pending chunk first; blocks as needed.
        """
        if self._pending_docs:
            self._dispatch(self._pending_docs)
            self._pending_docs = []
        while self._inflight:
            yield from self._drain_head()

    def map(
        self,
        trees: Iterable[Tree],
        trace: Optional[TraceContext] = None,
    ) -> Iterator[Outcome]:
        """Translate a forest; outcomes stream back in input order.

        Materializable forests are chunked cost-aware across the pool
        (:func:`~repro.serve.shard.chunk_forest`); dispatch and
        collection overlap, bounded by ``max_pending``.  An optional
        ``trace`` collects one ``execute`` span per chunk (with
        worker-side sub-spans on the parallel path).
        """
        if self._closed:
            raise ServiceError("service is closed")
        if self._pending_docs:
            raise ServiceError(
                "map() cannot interleave with partially submitted chunks"
            )
        if self._inflight:
            raise ServiceError(
                "map() cannot start while earlier outcomes are pending — "
                "drain results() (e.g. from an abandoned map iterator) first"
            )
        forest = list(trees)
        if not self._parallel:
            self._dispatch(forest, trace)
            while self._inflight:
                yield from self._drain_head()
            return
        ranges = shard.chunk_forest(
            forest,
            max(self.jobs, -(-len(forest) // self.chunk_size)),
            max_docs=self.chunk_size,
        )
        for start, end in ranges:
            while len(self._inflight) >= self.max_pending:
                yield from self._drain_head()
            self._dispatch(forest[start:end], trace)
        while self._inflight:
            yield from self._drain_head()

    def run_batch_outcomes(
        self,
        trees: Iterable[Tree],
        trace: Optional[TraceContext] = None,
    ) -> List[Outcome]:
        """Materialized :meth:`map` — the engine-compatible entry point."""
        return list(self.map(trees, trace))

    @property
    def stats(self) -> Dict[str, object]:
        """Aggregate counters plus per-shard (per worker pid) counts."""
        return {
            **self._stats,
            "jobs": self.jobs,
            "shards": {pid: dict(s) for pid, s in self._shard_stats.items()},
        }

    def close(self) -> None:
        """Shut the pool down; pending unconsumed work is discarded.

        Idempotent, safe after a worker crash (a broken pool shuts down
        without raising), and registered as an interpreter-exit cleanup
        — an abandoned service cannot leak worker processes.
        """
        if self._closed:
            return
        self._closed = True
        _LIVE_SERVICES.discard(self)
        self._pending_docs = []
        self._inflight.clear()
        self._unresolved.clear()
        with self._pool_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=True)
            except Exception:  # pragma: no cover - defensive: a pool
                pass  # broken mid-shutdown must not fail close()

    def __enter__(self) -> "TransformService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
