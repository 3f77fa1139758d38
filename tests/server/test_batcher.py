"""MicroBatcher: load-driven coalescing, per-request outcomes,
admission control, shutdown."""

import asyncio
import threading
import time
from pathlib import Path

import pytest

from repro.engine import engine_for
from repro.errors import (
    OverloadedError,
    ServiceError,
    UndefinedTransductionError,
)
from repro.server.app import TransformServer, serve_forever
from repro.server.batcher import MicroBatcher
from repro.server.metrics import ServerMetrics
from repro.codec import TERM_CODEC, Transformation
from repro.server.registry import ModelEntry, ModelRegistry
from repro.workloads.flip import flip_input, flip_transducer


def flip_entry(**kwargs) -> ModelEntry:
    """A served flip entry with its engine compiled, as ``--warm``
    leaves it: its light batches run on the event loop."""
    entry = ModelEntry(
        "flip", "1", Path("flip@1.json"), raw_model(), **kwargs
    )
    entry.ensure_engine()
    return entry


def raw_model() -> Transformation:
    return Transformation(flip_transducer(), TERM_CODEC)


class ExecutorEntry(ModelEntry):
    """A ``jobs=2`` entry that translates in process.

    The batcher never runs a sharded entry's batch on the event loop,
    so a stub that blocks in ``run_batch`` blocks an executor thread
    and the loop keeps admitting; translating in process keeps the test
    free of a worker pool.
    """

    def __init__(self, name):
        super().__init__(
            name, "1", Path(f"{name}@1.json"), raw_model(), jobs=2
        )

    def run_batch(self, documents, trace=None):
        self.requests += len(documents)
        return self.transformation.apply_batch(documents, trace=trace)


class BlockingEntry(ExecutorEntry):
    """An entry whose dispatch blocks until the test releases it."""

    def __init__(self):
        super().__init__("slow")
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.started = []
        self.batches = []

    def run_batch(self, documents):
        self.started.append(len(documents))
        self.entered.set()
        self.gate.wait(timeout=30)
        self.batches.append(len(documents))
        return super().run_batch(documents)


class TrackingEntry(ExecutorEntry):
    """An entry that records how many of its dispatches overlap.

    Its first dispatch meets the other entries' first dispatches at
    ``barrier``, which only passes if they all run at once.
    """

    def __init__(self, name, barrier):
        super().__init__(name)
        self.barrier = barrier
        self.lock = threading.Lock()
        self.calls = self.in_flight = self.most_in_flight = 0

    def run_batch(self, documents):
        with self.lock:
            self.calls += 1
            first = self.calls == 1
            self.in_flight += 1
            self.most_in_flight = max(self.most_in_flight, self.in_flight)
        try:
            if first:
                self.barrier.wait(timeout=10)
            time.sleep(0.001)
            return super().run_batch(documents)
        finally:
            with self.lock:
                self.in_flight -= 1


async def held_dispatch(batcher, entry):
    """Submit one request for ``entry`` and wait until its dispatch is
    blocked in ``run_batch``; returns the request's future."""
    first = asyncio.ensure_future(batcher.submit(entry, flip_input(0, 0)))
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(None, entry.entered.wait, 10)
    return first


class FailingEntry(ModelEntry):
    """An entry whose dispatch dies wholesale (infrastructure failure)."""

    def __init__(self):
        super().__init__("bad", "1", Path("bad@1.json"), raw_model())

    def run_batch(self, documents):
        raise RuntimeError("the pool fell over")


class TestCoalescing:
    def test_concurrent_requests_coalesce_into_one_batch(self):
        entry = flip_entry()
        forest = [flip_input(n % 4, (n + 1) % 3) for n in range(10)]
        reference = engine_for(entry.machine).run_batch_outcomes(forest)

        async def main():
            batcher = MicroBatcher(max_batch=32)
            results = await asyncio.gather(
                *(batcher.submit(entry, document) for document in forest)
            )
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(main())
        assert [str(r) for r in results] == [str(r) for r in reference]
        # All ten were admitted in one loop tick: exactly one dispatch.
        assert stats["batches"] == 1
        assert stats["max_batch_seen"] == 10
        assert stats["coalesced"] == 10

    def test_max_batch_bounds_each_dispatch(self):
        entry = flip_entry()
        forest = [flip_input(1, 1)] * 10

        async def main():
            batcher = MicroBatcher(max_batch=4)
            await asyncio.gather(
                *(batcher.submit(entry, document) for document in forest)
            )
            stats = batcher.stats
            await batcher.close()
            return stats

        stats = asyncio.run(main())
        assert stats["batches"] == 3  # 4 + 4 + 2
        assert stats["max_batch_seen"] == 4

    def test_lone_request_dispatches_without_waiting(self):
        entry = flip_entry()

        async def main():
            batcher = MicroBatcher(max_batch=1000)
            start = time.perf_counter()
            result = await batcher.submit(entry, flip_input(1, 0))
            elapsed = time.perf_counter() - start
            await batcher.close()
            return result, elapsed

        result, elapsed = asyncio.run(main())
        assert str(result) == "root(#, a(#, #))"
        # Must not wait for 999 neighbours that never arrive.
        assert elapsed < 5.0

    def test_lone_request_arms_no_timer(self):
        """The request reaches ``run_batch`` through ``call_soon``
        alone: no positive-delay sleep on the loop."""
        entry = flip_entry()
        delays = []

        async def main():
            loop = asyncio.get_running_loop()
            call_at = loop.call_at

            def recording_call_at(when, *args, **kwargs):
                delays.append(when - loop.time())
                return call_at(when, *args, **kwargs)

            loop.call_at = recording_call_at
            batcher = MicroBatcher(max_batch=1000)
            result = await batcher.submit(entry, flip_input(1, 0))
            del loop.call_at
            stats = batcher.stats
            await batcher.close()
            return result, stats

        result, stats = asyncio.run(main())
        assert str(result) == "root(#, a(#, #))"
        assert stats["batches"] == 1
        assert [delay for delay in delays if delay > 0] == []

    @pytest.mark.parametrize(
        "max_batch, expected",
        [(32, [1, 10]), (4, [1, 4, 4, 2])],
        ids=["one-batch", "max-batch-4"],
    )
    def test_requests_during_a_dispatch_join_the_next_batch(
        self, max_batch, expected
    ):
        entry = BlockingEntry()
        forest = [flip_input(n % 4, (n + 1) % 3) for n in range(10)]

        metrics = ServerMetrics()

        async def main():
            batcher = MicroBatcher(max_batch=max_batch, metrics=metrics)
            first = await held_dispatch(batcher, entry)
            rest = []
            for document in forest:
                # One admission per loop turn: they still wait for the
                # held dispatch rather than each forming its own batch.
                rest.append(
                    asyncio.ensure_future(batcher.submit(entry, document))
                )
                await asyncio.sleep(0)
            entry.gate.set()
            results = await asyncio.gather(*rest)
            await first
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(main())
        reference = engine_for(entry.machine).run_batch_outcomes(forest)
        assert [str(r) for r in results] == [str(r) for r in reference]
        assert entry.batches == expected
        assert stats["batches"] == len(expected)
        assert stats["max_batch_seen"] == max(expected)
        labels = {"model": entry.key}
        sizes = metrics.histogram("repro_batch_documents", labels)
        assert (sizes.count, sizes.sum) == (len(expected), sum(expected))
        assembly = metrics.histogram("repro_batch_assembly_seconds", labels)
        assert assembly.count == len(expected)

    def test_entries_dispatch_concurrently_one_dispatch_each(self):
        barrier = threading.Barrier(2)
        entries = [
            TrackingEntry("left", barrier),
            TrackingEntry("right", barrier),
        ]

        async def main():
            batcher = MicroBatcher(max_batch=3)
            tasks = []
            for n in range(24):
                for entry in entries:
                    tasks.append(
                        asyncio.ensure_future(
                            batcher.submit(entry, flip_input(n % 3, 1))
                        )
                    )
                if n % 4 == 0:
                    await asyncio.sleep(0)
            results = await asyncio.gather(*tasks)
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(main())
        # The barrier passed: both entries' first dispatches overlapped.
        assert not barrier.broken
        assert stats["dispatch_failures"] == 0
        assert not any(isinstance(r, Exception) for r in results)
        for entry in entries:
            assert entry.calls > 1
            assert entry.most_in_flight == 1

    def test_bad_document_fails_alone_not_the_batch(self):
        entry = flip_entry()
        good = flip_input(1, 1)
        bad = flip_input(1, 1).children[0]  # no root wrapper: off-domain

        async def main():
            batcher = MicroBatcher(max_batch=8)
            results = await asyncio.gather(
                batcher.submit(entry, good),
                batcher.submit(entry, bad),
                batcher.submit(entry, good),
            )
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(main())
        assert isinstance(results[1], UndefinedTransductionError)
        reference = engine_for(entry.machine).run(good)
        assert str(results[0]) == str(results[2]) == str(reference)
        assert stats["batches"] == 1 and stats["errors"] == 1

    def test_dispatch_failure_resolves_every_member_to_service_error(self):
        entry = FailingEntry()

        async def main():
            batcher = MicroBatcher(max_batch=8)
            results = await asyncio.gather(
                batcher.submit(entry, flip_input(0, 0)),
                batcher.submit(entry, flip_input(1, 1)),
            )
            stats = batcher.stats
            await batcher.close()
            return results, stats

        results, stats = asyncio.run(main())
        assert all(isinstance(r, ServiceError) for r in results)
        assert all("the pool fell over" in str(r) for r in results)
        assert stats["dispatch_failures"] == 1


class TestAdmissionControl:
    def test_overload_raises_without_queueing(self):
        entry = BlockingEntry()

        async def main():
            batcher = MicroBatcher(max_batch=2, max_pending=2)
            first = asyncio.ensure_future(
                batcher.submit(entry, flip_input(0, 0))
            )
            second = asyncio.ensure_future(
                batcher.submit(entry, flip_input(1, 0))
            )
            await asyncio.sleep(0.05)  # both admitted, dispatch blocked
            with pytest.raises(OverloadedError) as caught:
                await batcher.submit(entry, flip_input(0, 1))
            entry.gate.set()
            results = await asyncio.gather(first, second)
            stats = batcher.stats
            await batcher.close()
            return caught.value, results, stats

        error, results, stats = asyncio.run(main())
        assert "retry" in str(error)
        assert stats["overloads"] == 1
        assert len(results) == 2  # the admitted requests still completed
        assert stats["requests"] == 2  # the rejected one was never queued

    def test_zero_max_pending_rejects_everything(self):
        entry = flip_entry()

        async def main():
            batcher = MicroBatcher(max_pending=0)
            with pytest.raises(OverloadedError):
                await batcher.submit(entry, flip_input(0, 0))
            await batcher.close()

        asyncio.run(main())


class TestLifecycle:
    def test_close_resolves_pending_to_shutdown_errors(self):
        entry = BlockingEntry()

        async def main():
            batcher = MicroBatcher(max_batch=100)
            first = await held_dispatch(batcher, entry)
            pending = asyncio.ensure_future(
                batcher.submit(entry, flip_input(0, 0))
            )
            await asyncio.sleep(0.02)
            # close() joins the executor, so release the held dispatch
            # from another thread while it waits.
            threading.Timer(0.05, entry.gate.set).start()
            await batcher.close()
            await batcher.close()  # idempotent
            outcome = await pending
            await first
            with pytest.raises(ServiceError):
                await batcher.submit(entry, flip_input(0, 0))
            return outcome

        outcome = asyncio.run(main())
        assert isinstance(outcome, ServiceError)
        assert "shutting down" in str(outcome)

    def test_close_never_starts_a_queued_batch(self):
        """A request queued behind a held dispatch resolves to the
        shutdown error; it is never dispatched to a stopped executor."""
        entry = BlockingEntry()

        async def main():
            batcher = MicroBatcher(max_batch=1)
            first = await held_dispatch(batcher, entry)
            second = asyncio.ensure_future(
                batcher.submit(entry, flip_input(1, 0))
            )
            await asyncio.sleep(0.02)
            threading.Timer(0.05, entry.gate.set).start()
            await batcher.close()
            outcomes = await asyncio.gather(first, second)
            await asyncio.sleep(0.05)
            return outcomes, batcher.stats

        (first, second), stats = asyncio.run(main())
        assert str(first) == "root(#, #)"
        assert isinstance(second, ServiceError)
        assert str(second) == "server shutting down"
        assert entry.started == [1]
        assert stats["batches"] == 1
        assert stats["dispatch_failures"] == 0

    @pytest.mark.parametrize("turns", [1, 2, 3, 4])
    def test_close_in_any_loop_turn_of_a_dispatch(self, turns):
        """Whichever loop turn of admit → take → dispatch ``close()``
        lands in, the request resolves to its result or to the shutdown
        error, never to a dispatch failure."""
        entry = flip_entry()

        async def main():
            batcher = MicroBatcher()
            pending = asyncio.ensure_future(
                batcher.submit(entry, flip_input(1, 0))
            )
            for _ in range(turns):
                await asyncio.sleep(0)
            await batcher.close()
            return await pending, batcher.stats

        outcome, stats = asyncio.run(main())
        assert stats["dispatch_failures"] == 0
        if isinstance(outcome, Exception):
            assert str(outcome) == "server shutting down"
        else:
            assert str(outcome) == "root(#, a(#, #))"

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ServiceError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ServiceError):
            MicroBatcher(max_pending=-1)

    def test_submit_releases_entry_refs(self):
        entry = flip_entry()

        async def main():
            batcher = MicroBatcher(max_batch=4)
            await asyncio.gather(
                *(batcher.submit(entry, flip_input(1, 1)) for _ in range(6))
            )
            await batcher.close()

        asyncio.run(main())
        assert entry._refs == 0
        entry.retire()  # with no holders this closes immediately
        assert entry._closed


class TestNoWaitKnob:
    """Batches form by load alone: no wait bound is accepted or shown."""

    def test_batcher_refuses_max_wait_ms(self):
        with pytest.raises(TypeError):
            MicroBatcher(max_wait_ms=2.0)

    def test_server_entry_points_refuse_max_wait_ms(self, tmp_path):
        with pytest.raises(TypeError):
            TransformServer(ModelRegistry(tmp_path), max_wait_ms=2.0)
        with pytest.raises(TypeError):
            serve_forever(tmp_path, max_wait_ms=2.0)

    def test_stats_carry_no_wait_bound(self):
        assert set(MicroBatcher().stats) == {
            "requests",
            "batches",
            "documents",
            "coalesced",
            "max_batch_seen",
            "errors",
            "overloads",
            "dispatch_failures",
            "pending",
            "max_batch",
            "max_pending",
        }
