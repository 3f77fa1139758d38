"""MicroBatcher: coalescing, latency bound, per-request outcomes,
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
from repro.server.batcher import MicroBatcher
from repro.codec import TERM_CODEC, Transformation
from repro.server.registry import ModelEntry
from repro.workloads.flip import flip_input, flip_transducer


def flip_entry(**kwargs) -> ModelEntry:
    return ModelEntry(
        "flip", "1", Path("flip@1.json"), raw_model(), **kwargs
    )


def raw_model() -> Transformation:
    return Transformation(flip_transducer(), TERM_CODEC)


class BlockingEntry(ModelEntry):
    """An entry whose dispatch blocks until the test releases it."""

    def __init__(self):
        super().__init__("slow", "1", Path("slow@1.json"), raw_model())
        self.gate = threading.Event()
        self.batches = []

    def run_batch(self, documents):
        self.gate.wait(timeout=30)
        self.batches.append(len(documents))
        return super().run_batch(documents)


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
            batcher = MicroBatcher(max_batch=32, max_wait_ms=20)
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
            batcher = MicroBatcher(max_batch=4, max_wait_ms=50)
            await asyncio.gather(
                *(batcher.submit(entry, document) for document in forest)
            )
            stats = batcher.stats
            await batcher.close()
            return stats

        stats = asyncio.run(main())
        assert stats["batches"] == 3  # 4 + 4 + 2
        assert stats["max_batch_seen"] == 4

    def test_max_wait_flushes_a_lone_request(self):
        entry = flip_entry()

        async def main():
            batcher = MicroBatcher(max_batch=1000, max_wait_ms=10)
            start = time.perf_counter()
            result = await batcher.submit(entry, flip_input(1, 0))
            elapsed = time.perf_counter() - start
            await batcher.close()
            return result, elapsed

        result, elapsed = asyncio.run(main())
        assert str(result) == "root(#, a(#, #))"
        # Must not wait for 999 neighbours that never arrive.
        assert elapsed < 5.0

    def test_bad_document_fails_alone_not_the_batch(self):
        entry = flip_entry()
        good = flip_input(1, 1)
        bad = flip_input(1, 1).children[0]  # no root wrapper: off-domain

        async def main():
            batcher = MicroBatcher(max_batch=8, max_wait_ms=20)
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
            batcher = MicroBatcher(max_batch=8, max_wait_ms=5)
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
            batcher = MicroBatcher(
                max_batch=2, max_wait_ms=5, max_pending=2
            )
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
        entry = flip_entry()

        async def main():
            batcher = MicroBatcher(max_batch=100, max_wait_ms=10_000)
            pending = asyncio.ensure_future(
                batcher.submit(entry, flip_input(0, 0))
            )
            await asyncio.sleep(0.02)
            await batcher.close()
            await batcher.close()  # idempotent
            outcome = await pending
            with pytest.raises(ServiceError):
                await batcher.submit(entry, flip_input(0, 0))
            return outcome

        outcome = asyncio.run(main())
        assert isinstance(outcome, ServiceError)
        assert "shutting down" in str(outcome)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ServiceError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ServiceError):
            MicroBatcher(max_pending=-1)

    def test_submit_releases_entry_refs(self):
        entry = flip_entry()

        async def main():
            batcher = MicroBatcher(max_batch=4, max_wait_ms=5)
            await asyncio.gather(
                *(batcher.submit(entry, flip_input(1, 1)) for _ in range(6))
            )
            await batcher.close()

        asyncio.run(main())
        assert entry._refs == 0
        entry.retire()  # with no holders this closes immediately
        assert entry._closed
