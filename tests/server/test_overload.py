"""Overload-path regression: rejection counters are exact, and rejected
requests never pollute the latency histograms.

The contract under test (pinned here because it is easy to break when
moving timing hooks around): an :class:`OverloadedError` is refused *at
admission* — it increments ``repro_overloads_total`` and counts as a
``repro_requests_total{outcome="overload"}`` response, but it waits in
no queue, so it must never be recorded in ``repro_queue_wait_seconds``
(which would silently drag the reported wait quantiles toward zero).
"""

import asyncio
import json
import shutil
import socket
import threading
from pathlib import Path

import pytest

from tests.server.faults import wait_until
from repro.errors import OverloadedError
from repro.server import ServerClient, ServerMetrics, ServerThread
from repro.server.batcher import MicroBatcher
from repro.workloads.flip import flip_input

from tests.server.test_batcher import BlockingEntry

STOCK_MODELS = Path(__file__).resolve().parents[2] / "models"


class TestBatcherOverloadAccounting:
    def drive(self, total: int, max_pending: int):
        entry = BlockingEntry()
        metrics = ServerMetrics()

        async def main():
            batcher = MicroBatcher(
                max_batch=1,
                max_pending=max_pending,
                metrics=metrics,
            )

            async def one(document):
                try:
                    return await batcher.submit(entry, document)
                except OverloadedError as error:
                    return error

            tasks = [
                asyncio.ensure_future(one(flip_input(n % 4, n % 3)))
                for n in range(total)
            ]
            await asyncio.sleep(0.05)  # everyone admitted or rejected
            entry.gate.set()
            outcomes = await asyncio.gather(*tasks)
            stats = batcher.stats
            await batcher.close()
            return outcomes, stats

        outcomes, stats = asyncio.run(main())
        rejected = [
            o for o in outcomes if isinstance(o, OverloadedError)
        ]
        return outcomes, rejected, stats, metrics

    def test_rejections_match_the_counter_exactly(self):
        total, max_pending = 10, 3
        outcomes, rejected, stats, metrics = self.drive(total, max_pending)
        # Admission is synchronous on the loop: exactly max_pending
        # requests got in, everyone else was refused.
        assert len(rejected) == total - max_pending
        assert stats["overloads"] == len(rejected)
        assert (
            metrics.counter_value(
                "repro_overloads_total", {"model": "slow@1"}
            )
            == len(rejected)
        )

    def test_queue_wait_histogram_excludes_rejected_requests(self):
        total, max_pending = 12, 4
        outcomes, rejected, _stats, metrics = self.drive(total, max_pending)
        admitted = total - len(rejected)
        queue_wait = metrics.histogram(
            "repro_queue_wait_seconds", {"model": "slow@1"}
        )
        assert queue_wait is not None
        assert queue_wait.count == admitted  # and *never* the rejects
        dispatch = metrics.histogram(
            "repro_dispatch_seconds", {"model": "slow@1"}
        )
        assert dispatch.count == admitted  # max_batch=1: one per request

    def test_no_overload_means_no_overload_series(self):
        entry = BlockingEntry()
        entry.gate.set()  # never block: nothing can overload
        metrics = ServerMetrics()

        async def main():
            batcher = MicroBatcher(
                max_batch=4, max_pending=64, metrics=metrics
            )
            await asyncio.gather(
                *(
                    batcher.submit(entry, flip_input(n % 4, n % 3))
                    for n in range(8)
                )
            )
            await batcher.close()

        asyncio.run(main())
        assert metrics.counter_total("repro_overloads_total") == 0
        assert (
            metrics.histogram(
                "repro_queue_wait_seconds", {"model": "slow@1"}
            ).count
            == 8
        )


class TestWireLevelOverload:
    def test_overload_responses_equal_rejection_counter_exactly(
        self, models_dir
    ):
        total, max_pending = 10, 2
        gate = threading.Event()
        # A sharded entry (``jobs=2``) never runs a batch on the event
        # loop, so the held dispatch blocks an executor thread and the
        # loop keeps admitting and refusing requests.
        with ServerThread(
            models_dir, max_batch=1, max_pending=max_pending, jobs=2
        ) as handle:
            server = handle.server
            entry = server.registry.get("flip")
            original = entry.run_batch

            def slow_run_batch(documents):
                gate.wait(timeout=30)
                return original(documents)

            entry.run_batch = slow_run_batch
            outcomes = []
            outcomes_lock = threading.Lock()

            def drive():
                with ServerClient(handle.host, handle.port) as client:
                    outcome = client.try_transform(
                        "flip", "root(a(#, #), #)"
                    )
                    with outcomes_lock:
                        outcomes.append(outcome)

            threads = [
                threading.Thread(target=drive) for _ in range(total)
            ]
            for thread in threads:
                thread.start()
            # Admission happens on the event loop before any dispatch
            # completes: exactly max_pending got in, the rest bounced.
            wait_until(
                lambda: len(outcomes) >= total - max_pending,
                message="overload responses never arrived",
            )
            gate.set()
            for thread in threads:
                thread.join()

            rejected = [
                o for o in outcomes if isinstance(o, OverloadedError)
            ]
            served = [o for o in outcomes if isinstance(o, str)]
            assert len(rejected) == total - max_pending
            assert len(served) == max_pending
            assert served == ["root(#, a(#, #))"] * max_pending

            metrics = server.metrics
            labels = {"model": "flip@1"}
            assert metrics.counter_value(
                "repro_overloads_total", labels
            ) == len(rejected)
            assert metrics.counter_value(
                "repro_requests_total",
                {"model": "flip@1", "outcome": "overload"},
            ) == len(rejected)
            assert metrics.counter_value(
                "repro_requests_total",
                {"model": "flip@1", "outcome": "ok"},
            ) == len(served)
            # Every response has an end-to-end latency; only admitted
            # requests ever waited in the queue.
            assert (
                metrics.histogram("repro_request_seconds", labels).count
                == total
            )
            assert (
                metrics.histogram("repro_queue_wait_seconds", labels).count
                == len(served)
            )


def json_lines_body(count: int) -> bytes:
    """``count`` distinct value-free config documents, one per line:
    document ``n`` spells ``n`` in binary as a list of booleans."""
    lines = []
    for n in range(count):
        bits = ", ".join(
            "true" if (n >> bit) & 1 else "false" for bit in range(12)
        )
        lines.append(f'{{"user": {{"data": [{bits}]}}, "port": null}}\n')
    return "".join(lines).encode()


def stream_over_socket(handle, model: str, body: bytes):
    """Send one ``transform_stream`` request; every response line."""
    with socket.create_connection((handle.host, handle.port)) as raw:
        wire = raw.makefile("rwb")
        header = {
            "op": "transform_stream",
            "id": 1,
            "model": model,
            "content_length": len(body),
        }
        wire.write(json.dumps(header).encode() + b"\n" + body)
        wire.flush()
        responses = []
        while True:
            response = json.loads(wire.readline())
            responses.append(response)
            if response.get("done"):
                return responses


class TestStreamAdmission:
    """A stream body longer than ``max_pending`` waits for the engine
    instead of shedding its tail as overloads."""

    @pytest.fixture
    def json_models(self, tmp_path):
        directory = tmp_path / "models"
        directory.mkdir()
        shutil.copy(STOCK_MODELS / "rename-json@1.json", directory)
        return directory

    def test_long_body_answers_every_document_in_order(self, json_models):
        total = 4000
        with ServerThread(json_models) as handle:
            metrics = handle.server.metrics
            before = metrics.counter_total("repro_overloads_total")
            responses = stream_over_socket(
                handle, "rename-json", json_lines_body(total)
            )
            after = metrics.counter_total("repro_overloads_total")
        *documents, done = responses
        assert [response["seq"] for response in documents] == list(
            range(total)
        )
        assert all(response["ok"] for response in documents)
        assert '"username"' in documents[-1]["document"]
        assert done["ok"] and done["count"] == total
        assert done["failures"] == 0
        assert after == before

    def test_small_admission_bound_serves_a_longer_body(self, json_models):
        with ServerThread(json_models, max_pending=8) as handle:
            responses = stream_over_socket(
                handle, "rename-json", json_lines_body(50)
            )
            overloads = handle.server.metrics.counter_total(
                "repro_overloads_total"
            )
        assert overloads == 0
        assert responses[-1]["count"] == 50
        assert responses[-1]["failures"] == 0
